/**
 * @file
 * The machine topology specification: how many kernel nodes the fused
 * machine has, which ISA and core model each runs, how much local DRAM
 * each boots with, and how large the CXL shared pool is.
 *
 * Nothing in the fused-kernel design is inherently pairwise — coherent
 * shared memory scales to many heterogeneous cores, and an ensemble of
 * kernels naturally spans more than two instances. A TopologySpec is
 * the single source of truth every layer builds per-node and per-pair
 * state from: PhysMap generates the physical layout, Machine builds
 * the node set, the messaging layer sizes one ring per ordered pair,
 * and CrashManager sizes its per-observer failure detector.
 *
 * The default (`paperPair`) reproduces the paper's evaluation machine
 * — one x86 node plus one Arm node with the Figure-4 8 GiB layout —
 * bit-identically to the historical hard-wired configuration.
 */

#ifndef STRAMASH_MEM_TOPOLOGY_HH
#define STRAMASH_MEM_TOPOLOGY_HH

#include <cstddef>
#include <vector>

#include "stramash/common/types.hh"
#include "stramash/mem/latency_profile.hh"

namespace stramash
{

/** One kernel node in the fused machine. */
struct TopologyNode
{
    NodeId id;
    IsaType isa;
    CoreModel core;
    unsigned numCores = 1;
    /** Node-local DRAM (boot strip plus high remainder; excludes the
     *  shared pool). */
    Addr dramBytes = 0;
};

/**
 * Whole-machine topology. Immutable intent: build one, validate() it,
 * hand it to SystemConfig/MachineConfig.
 */
struct TopologySpec
{
    MemoryModel memoryModel = MemoryModel::Shared;
    std::vector<TopologyNode> nodes;
    /** CXL shared-pool bytes (Shared model only; must be 0 for the
     *  Separated and FullyShared models, whose high memory is split
     *  between the nodes instead). */
    Addr poolBytes = 0;
    /** Per-node boot-local strip laid out consecutively from address
     *  0 (paper Fig. 4: 1.5 GiB per node). A node with less DRAM than
     *  this gets everything as its boot strip. */
    static constexpr Addr bootStripBytes = (Addr{3} << 30) / 2;
    /** MMIO hole placed directly after the boot strips (paper:
     *  [3 GiB, 4 GiB) on the two-node machine). */
    static constexpr Addr mmioHoleBytes = Addr{1} << 30;

    std::size_t nodeCount() const { return nodes.size(); }

    /**
     * Structural validation: at least one node, ids are exactly
     * {0..n-1} (dense, unique), every node has DRAM, pool sizing
     * matches the memory model, sizes are page-aligned. Panics with
     * a descriptive message on violation.
     */
    void validate() const;

    /**
     * The paper's evaluation pair: x86 Xeon Gold node 0 + Arm
     * ThunderX2 node 1, Figure-4 8 GiB layout. Under
     * Separated/FullyShared each node owns 3.5 GiB (1.5 boot + 2
     * high); under Shared each owns its 1.5 GiB boot strip and the
     * high 4 GiB is the pool.
     */
    static TopologySpec paperPair(MemoryModel model);

    /**
     * An N-node machine alternating x86 (Xeon Gold) and Arm
     * (ThunderX2) nodes: node 0 is x86, node 1 Arm, node 2 x86...
     * Each node gets the paper boot strip, 1.5 GiB, as its local
     * DRAM; under the Shared model the pool holds 4 GiB.
     */
    static TopologySpec alternating(std::size_t n, MemoryModel model);
};

} // namespace stramash

#endif // STRAMASH_MEM_TOPOLOGY_HH

/**
 * @file
 * The machine's physical memory layout (paper Figure 4 / Section 8.1)
 * and its classification under the three hardware memory models
 * (paper Figure 3).
 *
 * Default 8 GiB layout, matching the paper's evaluation setup:
 *
 *   [0x0,        1.5 GiB)  x86 local DRAM
 *   [1.5 GiB,    3 GiB  )  Arm local DRAM
 *   [3 GiB,      4 GiB  )  MMIO hole
 *   [4 GiB,      6 GiB  )  x86 local DRAM  (Separated)   / pool (Shared)
 *   [6 GiB,      8 GiB  )  Arm local DRAM  (Separated)   / pool (Shared)
 *
 * In the Shared model [4 GiB, 8 GiB) is the CXL shared memory pool,
 * remote to both nodes. In the FullyShared model every DRAM range is
 * local to every node.
 */

#ifndef STRAMASH_MEM_PHYS_MAP_HH
#define STRAMASH_MEM_PHYS_MAP_HH

#include <vector>

#include "stramash/common/addr_range.hh"
#include "stramash/common/types.hh"
#include "stramash/mem/topology.hh"

namespace stramash
{

/** One physical memory region and which node's DRAM it is. */
struct PhysRegion
{
    AddrRange range;
    /** Home node of the DRAM (invalidNode for the shared pool). */
    NodeId homeNode;
    /** True if this region belongs to the CXL shared pool. */
    bool sharedPool;
};

/**
 * Physical memory map for an N-node machine under a given memory
 * model. Immutable after construction.
 */
class PhysMap
{
  public:
    /**
     * Parametric layout generator: the N-node generalisation of the
     * paper's Figure-4 layout. Boot-local strips (one per node, in
     * node order, `spec.bootStripBytes` each) are laid out
     * consecutively from address 0, followed by the MMIO hole, the
     * per-node high remainders (dramBytes minus the boot strip, again
     * in node order), and finally the shared pool (Shared model).
     *
     * generate(TopologySpec::paperPair(model)) is bit-identical to
     * paperDefault(model) — the differential tests hold us to it.
     */
    static PhysMap generate(const TopologySpec &spec);

    /**
     * Build the paper's default 8 GiB layout for a given model (x86
     * node 0, Arm node 1). Delegates to generate() on the paper-pair
     * spec.
     */
    static PhysMap paperDefault(MemoryModel model);

    /** Build from an explicit region list. */
    PhysMap(MemoryModel model, std::vector<PhysRegion> regions);

    MemoryModel model() const { return model_; }

    /** All regions, ascending. */
    const std::vector<PhysRegion> &regions() const { return regions_; }

    /** The region containing @p addr, or nullptr if unmapped. */
    const PhysRegion *regionOf(Addr addr) const;

    /**
     * Classify a physical access by @p accessor under the active
     * model: Local, Remote or SharedPool. Faults if the address is
     * not DRAM.
     */
    MemoryClass classify(Addr addr, NodeId accessor) const;

    /** True if the address is backed by DRAM (not a hole). */
    bool isDram(Addr addr) const;

    /** Total DRAM bytes whose home is @p node (excludes pool). */
    Addr localBytes(NodeId node) const;

    /** Total bytes in the shared pool. */
    Addr poolBytes() const;

    /** Ranges of DRAM local to @p node at boot (per §6.1 the kernel
     *  adjusts its boundaries from the firmware memory map). */
    std::vector<AddrRange> bootRanges(NodeId node) const;

    /** Ranges of the shared pool. */
    std::vector<AddrRange> poolRanges() const;

  private:
    MemoryModel model_;
    std::vector<PhysRegion> regions_;
};

} // namespace stramash

#endif // STRAMASH_MEM_PHYS_MAP_HH

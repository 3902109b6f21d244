#include "stramash/mem/topology.hh"

#include <algorithm>

#include "stramash/common/logging.hh"
#include "stramash/common/units.hh"

namespace stramash
{

void
TopologySpec::validate() const
{
    panic_if(nodes.empty(), "topology: needs at least one node");
    // Dense ids {0..n-1}: every per-node table in the stack (tracer
    // tracks, IPI counters, detector matrices) indexes by NodeId.
    std::vector<bool> seen(nodes.size(), false);
    for (const auto &n : nodes) {
        panic_if(n.id >= nodes.size(), "topology: node id ", n.id,
                 " is not dense in a ", nodes.size(), "-node machine");
        panic_if(seen[n.id], "topology: duplicate node id ", n.id);
        seen[n.id] = true;
        panic_if(n.dramBytes == 0, "topology: node ", n.id,
                 " has no DRAM");
        panic_if(n.dramBytes % pageSize != 0, "topology: node ", n.id,
                 " DRAM is not page-aligned");
        panic_if(n.numCores == 0, "topology: node ", n.id,
                 " has no cores");
    }
    if (memoryModel == MemoryModel::Shared) {
        panic_if(poolBytes == 0,
                 "topology: the Shared model needs a non-empty pool");
    } else {
        panic_if(poolBytes != 0, "topology: only the Shared model has "
                                 "a pool; split the high memory into "
                                 "dramBytes instead");
    }
    panic_if(poolBytes % pageSize != 0,
             "topology: pool must be page-aligned");
}

TopologySpec
TopologySpec::paperPair(MemoryModel model)
{
    TopologySpec spec;
    spec.memoryModel = model;
    // Figure-4 sizing: 1.5 GiB boot strips; under Separated and
    // FullyShared the high 4 GiB is split 2+2, under Shared it is the
    // pool.
    const bool pooled = model == MemoryModel::Shared;
    const Addr dram = pooled ? bootStripBytes : bootStripBytes + 2_GiB;
    spec.poolBytes = pooled ? 4_GiB : 0;
    spec.nodes = {
        {0, IsaType::X86_64, CoreModel::XeonGold, 1, dram},
        {1, IsaType::AArch64, CoreModel::ThunderX2, 1, dram},
    };
    return spec;
}

TopologySpec
TopologySpec::alternating(std::size_t n, MemoryModel model)
{
    panic_if(n == 0, "topology: zero nodes");
    TopologySpec spec;
    spec.memoryModel = model;
    if (model == MemoryModel::Shared)
        spec.poolBytes = 4_GiB;
    for (std::size_t i = 0; i < n; ++i) {
        bool x86 = (i % 2) == 0;
        spec.nodes.push_back({static_cast<NodeId>(i),
                              x86 ? IsaType::X86_64 : IsaType::AArch64,
                              x86 ? CoreModel::XeonGold
                                  : CoreModel::ThunderX2,
                              1, bootStripBytes});
    }
    return spec;
}

} // namespace stramash

/**
 * @file
 * Example: run an NPB-derived workload under both OS designs and
 * watch the cost structure differ — the Table 3 story in one
 * program.
 *
 * Usage: npb_migration [is|cg|mg|ft] [problem_bytes] [iterations]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "stramash/workloads/npb.hh"

using namespace stramash;

namespace
{

/** Run @p kernel under @p design; returns whether it verified. */
bool
runDesign(OsDesign design, const std::string &kernel,
          const NpbConfig &ncfg)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.transport = Transport::SharedMemory;
    System sys(cfg);
    App app(sys, 0);

    NpbResult r = makeNpbKernel(kernel)->run(app, ncfg);

    std::printf("%-15s: runtime %8.2f Mcycles  messages %6llu  "
                "replicated %5llu  verified %s\n",
                osDesignName(design),
                static_cast<double>(sys.runtime()) / 1e6,
                static_cast<unsigned long long>(sys.messagesSent()),
                static_cast<unsigned long long>(
                    sys.replicatedPages()),
                r.verified ? "yes" : "NO");

    // Per-node detail.
    for (NodeId n = 0; n < sys.nodeCount(); ++n) {
        const Node &node = sys.machine().node(n);
        auto &cs = sys.machine().caches().nodeStats(n);
        std::printf("    node%u (%s): %llu inst, %llu cycles, "
                    "remote-mem hits %llu, IPIs %llu\n",
                    n, isaName(node.isa()),
                    static_cast<unsigned long long>(node.icount()),
                    static_cast<unsigned long long>(node.cycles()),
                    static_cast<unsigned long long>(
                        cs.value("remote_mem_hits") +
                        cs.value("remote_shared_mem_hits")),
                    static_cast<unsigned long long>(
                        sys.machine().ipisReceived(n)));
    }
    return r.verified;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string kernel = argc > 1 ? argv[1] : "is";
    NpbConfig ncfg;
    ncfg.problemBytes =
        argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 1 << 20;
    ncfg.iterations =
        argc > 3 ? static_cast<unsigned>(std::atoi(argv[3])) : 4;

    std::printf("NPB '%s' (%llu bytes, %u procedures), migrating "
                "x86 <-> Arm each procedure\n\n",
                kernel.c_str(),
                static_cast<unsigned long long>(ncfg.problemBytes),
                ncfg.iterations);

    bool ok = runDesign(OsDesign::MultipleKernel, kernel, ncfg);
    std::printf("\n");
    ok = runDesign(OsDesign::FusedKernel, kernel, ncfg) && ok;
    return ok ? 0 : 1;
}

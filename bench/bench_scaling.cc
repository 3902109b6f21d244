/**
 * @file
 * Node-count scaling of the sharded kv-store: the N-node experiment
 * the TopologySpec generalisation exists for. Sweeps 2-, 4- and
 * 8-node alternating x86/Arm machines under both OS designs, serves
 * the same seeded request stream on each, and reports aggregate
 * throughput (requests per simulated megacycle of max-node runtime).
 *
 * Shards pin one server per node and requests arrive round-robin at
 * every node's ingress, so added nodes add both ingress capacity and
 * shard-service capacity; throughput should grow close to linearly,
 * with cross-shard forwarding (fraction (N-1)/N of requests) as the
 * sub-linear term. The fused design forwards through coherent shared
 * memory plus one IPI, the multiple-kernel design through a
 * two-message RPC, so the fused curve stays above.
 *
 * As with the Figure-14 kv-store runs this is a functional-mode
 * experiment (cache plugin off); all timing is simulated cycles, so
 * every metric is deterministic across hosts. Emits
 * BENCH_scaling.json (override with --json <path>) for the topology
 * CI job.
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.hh"
#include "stramash/workloads/sharded_kvstore.hh"

using namespace stramash;
using namespace stramash::bench;

namespace
{

struct RunResult
{
    double reqPerMcycle = 0.0;
    double crossShardFrac = 0.0;
    bool verified = false;
};

RunResult
runOne(OsDesign design, std::size_t nodes, std::uint64_t requests)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(nodes, MemoryModel::Shared);
    System sys(cfg);

    ShardedKvStore store(sys);
    store.populate();
    Cycles spent = store.run(requests);

    RunResult r;
    r.reqPerMcycle = spent ? static_cast<double>(requests) /
                                 (static_cast<double>(spent) / 1e6)
                           : 0.0;
    r.crossShardFrac =
        static_cast<double>(store.crossShardRequests()) /
        static_cast<double>(store.requestsServed());
    r.verified = store.verify();
    return r;
}

const char *
designName(OsDesign d)
{
    return d == OsDesign::FusedKernel ? "fused" : "popcorn";
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string jsonPath = "BENCH_scaling.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }

    const std::uint64_t requests = 4000;
    const std::size_t nodeCounts[] = {2, 4, 8};
    const OsDesign designs[] = {OsDesign::FusedKernel,
                                OsDesign::MultipleKernel};

    std::printf("=== Sharded kv-store scaling "
                "(%llu requests, alternating x86/Arm nodes) ===\n\n",
                static_cast<unsigned long long>(requests));

    Table tab({"design", "nodes", "req/Mcyc", "vs 2-node",
               "cross-shard", "verified"});
    std::vector<std::pair<std::string, double>> metrics;
    std::map<std::string, std::map<std::size_t, RunResult>> results;

    for (OsDesign d : designs) {
        double base = 0.0;
        for (std::size_t n : nodeCounts) {
            RunResult r = runOne(d, n, requests);
            results[designName(d)][n] = r;
            if (n == nodeCounts[0])
                base = r.reqPerMcycle;
            double rel = base > 0 ? r.reqPerMcycle / base : 0.0;
            tab.addRow({designName(d), std::to_string(n),
                        Table::num(r.reqPerMcycle, 2),
                        Table::num(rel, 2) + "x",
                        Table::num(r.crossShardFrac * 100, 1) + "%",
                        r.verified ? "yes" : "NO"});
            std::string prefix = std::string(designName(d)) + ".n" +
                                 std::to_string(n);
            metrics.emplace_back(prefix + ".req_per_mcycle",
                                 r.reqPerMcycle);
            metrics.emplace_back(prefix + ".speedup_vs_n2", rel);
        }
    }
    tab.print();
    std::printf("\n");

    bool allVerified = true;
    for (const auto &[d, byN] : results)
        for (const auto &[n, r] : byN)
            allVerified &= r.verified;
    check(allVerified, "every run verifies end to end "
                       "(host mirror matches every slot)");

    const auto &fused = results["fused"];
    double f42 = fused.at(2).reqPerMcycle > 0
                     ? fused.at(4).reqPerMcycle /
                           fused.at(2).reqPerMcycle
                     : 0.0;
    check(f42 >= 1.5,
          "fused 4-node aggregate throughput >= 1.5x 2-node (got " +
              Table::num(f42, 2) + "x)");
    check(fused.at(8).reqPerMcycle > fused.at(4).reqPerMcycle,
          "fused throughput still climbing at 8 nodes");
    const auto &pop = results["popcorn"];
    check(fused.at(4).reqPerMcycle >= pop.at(4).reqPerMcycle,
          "fused forwarding beats two-message RPC at 4 nodes");

    check(writeBenchJson(jsonPath, metrics), "wrote " + jsonPath);
    return checksExitCode();
}

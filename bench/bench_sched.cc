/**
 * @file
 * Scheduler benchmark: work stealing under Zipfian-skewed load, and
 * the cost asymmetry of the two steal paths.
 *
 * Sweep: N in {2, 4, 8} alternating x86/Arm nodes, both OS designs,
 * stealing on vs off. Work items land on the node their Zipfian-
 * scrambled key hashes to, so a few nodes take most of the work;
 * static placement leaves the other nodes idle while the hot node
 * grinds, stealing rebalances between drain rounds. Throughput is
 * items per simulated megacycle of max-node runtime — deterministic,
 * so the committed baseline gates it in CI.
 *
 * The steal-cost microsection runs with the cache plugin live and
 * measures one batch steal end to end in each design:
 *
 *   - fused: no messages; the cost is coherent cache traffic, and the
 *     snoop-filter counters must show the lines moving.
 *   - Popcorn: a StealRequest/StealResponse round-trip through the
 *     transport; the message counter must show it.
 *
 * Cost metrics are emitted as higher-is-better values (items per
 * kilocycle, Popcorn/fused cost ratio) so the regression checker's
 * floor semantics apply cleanly.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/bench_util.hh"
#include "stramash/load/keydist.hh"
#include "stramash/sched/scheduler.hh"

using namespace stramash;
using namespace stramash::bench;

namespace
{

constexpr std::uint64_t kItems = 1200;
constexpr std::uint64_t kItemWeight = 20000;
constexpr std::uint64_t kItemInstructions = 4000;

const char *
designName(OsDesign d)
{
    return d == OsDesign::FusedKernel ? "fused" : "popcorn";
}

SchedConfig
sweepSchedConfig(bool stealing)
{
    SchedConfig sc;
    sc.stealing = stealing;
    // Small blocks = short drain rounds = frequent steal rounds.
    sc.runBlock = 16;
    sc.stealBatch = 8;
    return sc;
}

/** Submit the Zipfian-placed item stream (identical for every
 *  configuration at a given node count). */
void
submitSkewed(Scheduler &sched, System &sys, std::size_t nodes)
{
    KeyChooser keys(KeyDistConfig::zipfian(4096, 0.99, 17));
    for (std::uint64_t i = 0; i < kItems; ++i) {
        NodeId target = static_cast<NodeId>(keys.next() % nodes);
        WorkItem item;
        item.tag = i;
        item.weight = kItemWeight;
        item.footprintBytes = 4096;
        item.fn = [&sys](NodeId node) {
            sys.machine().retire(node, kItemInstructions);
            sys.machine().stall(node, kItemWeight);
        };
        sched.submitTo(target, std::move(item));
    }
}

struct SweepResult
{
    double itemsPerMcycle = 0.0;
    Cycles spent = 0;
    std::uint64_t steals = 0;
    std::uint64_t stolenItems = 0;
    bool drained = false;
};

SweepResult
runSweep(OsDesign design, std::size_t nodes, bool stealing)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(nodes, MemoryModel::Shared);
    System sys(cfg);

    Scheduler sched(sys, sweepSchedConfig(stealing));
    submitSkewed(sched, sys, nodes);
    Cycles spent = sched.runInline();

    SweepResult r;
    r.spent = spent;
    r.itemsPerMcycle = spent ? static_cast<double>(kItems) /
                                   (static_cast<double>(spent) / 1e6)
                             : 0.0;
    r.steals = sched.stats().value("steals_succeeded");
    r.stolenItems = sched.stats().value("steal_items");
    r.drained = sched.totalQueued() == 0 &&
                sched.itemsExecuted() == kItems;
    return r;
}

// ---- steal-cost microsection (cache plugin live) -------------------

struct StealCost
{
    /** Total cycles (all nodes) one batch steal cost. */
    double cyclesPerItem = 0.0;
    std::uint64_t messages = 0;
    /** Cross-node coherence activity the steal produced. */
    std::uint64_t coherenceDelta = 0;
};

std::uint64_t
coherenceTotal(System &sys)
{
    std::uint64_t total = 0;
    Machine &m = sys.machine();
    for (NodeId n = 0; n < m.nodeCount(); ++n) {
        StatGroup &cs = m.caches().nodeStats(n);
        total += cs.value("snoop_datas");
        total += cs.value("snoop_invalidates");
        total += cs.value("remote_mem_hits");
        total += cs.value("remote_shared_mem_hits");
    }
    return total;
}

std::uint64_t
cycleTotal(System &sys)
{
    std::uint64_t total = 0;
    for (NodeId n = 0; n < sys.machine().nodeCount(); ++n)
        total += sys.machine().node(n).cycles();
    return total;
}

StealCost
measureStealCost(OsDesign design)
{
    constexpr unsigned kBatch = 8;
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = true;
    cfg.topology = TopologySpec::alternating(4, MemoryModel::Shared);
    System sys(cfg);

    Scheduler sched(sys, sweepSchedConfig(true));

    std::uint64_t cyc0 = cycleTotal(sys);
    std::uint64_t msg0 = sys.messagesSent();
    std::uint64_t coh0 = coherenceTotal(sys);
    unsigned got = sched.chargeStealPath(/*thief=*/1, /*victim=*/0,
                                         kBatch);

    StealCost c;
    c.cyclesPerItem = got ? static_cast<double>(cycleTotal(sys) - cyc0) /
                                static_cast<double>(got)
                          : 0.0;
    c.messages = sys.messagesSent() - msg0;
    c.coherenceDelta = coherenceTotal(sys) - coh0;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string jsonPath = "BENCH_sched.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }

    std::printf("=== Scheduler: Zipfian-skewed load, stealing on/off "
                "(%llu items, weight %llu cycles) ===\n\n",
                static_cast<unsigned long long>(kItems),
                static_cast<unsigned long long>(kItemWeight));

    const std::size_t nodeCounts[] = {2, 4, 8};
    const OsDesign designs[] = {OsDesign::FusedKernel,
                                OsDesign::MultipleKernel};

    Table tab({"design", "nodes", "static it/Mcyc", "steal it/Mcyc",
               "speedup", "steals", "stolen"});
    std::vector<std::pair<std::string, double>> metrics;
    std::map<std::string, std::map<std::size_t, double>> speedups;
    bool allDrained = true;

    for (OsDesign d : designs) {
        for (std::size_t n : nodeCounts) {
            SweepResult stat = runSweep(d, n, false);
            SweepResult steal = runSweep(d, n, true);
            allDrained &= stat.drained && steal.drained;
            double speedup = stat.itemsPerMcycle > 0
                                 ? steal.itemsPerMcycle /
                                       stat.itemsPerMcycle
                                 : 0.0;
            speedups[designName(d)][n] = speedup;
            tab.addRow({designName(d), std::to_string(n),
                        Table::num(stat.itemsPerMcycle, 2),
                        Table::num(steal.itemsPerMcycle, 2),
                        Table::num(speedup, 2) + "x",
                        std::to_string(steal.steals),
                        std::to_string(steal.stolenItems)});
            std::string prefix = std::string(designName(d)) + ".n" +
                                 std::to_string(n);
            metrics.emplace_back(prefix + ".static_items_per_mcycle",
                                 stat.itemsPerMcycle);
            metrics.emplace_back(prefix + ".steal_items_per_mcycle",
                                 steal.itemsPerMcycle);
            metrics.emplace_back(prefix + ".steal_speedup", speedup);
        }
    }
    tab.print();
    std::printf("\n");

    check(allDrained, "every configuration drains all items exactly "
                      "once");
    check(speedups["fused"][8] >= 1.3,
          "fused 8-node stealing >= 1.3x static placement under "
          "skewed load (got " +
              Table::num(speedups["fused"][8], 2) + "x)");
    check(speedups["popcorn"][8] > 1.0,
          "popcorn stealing still wins at 8 nodes despite RPC cost");

    // ---- steal path cost (cache plugin live) ----
    StealCost fusedCost = measureStealCost(OsDesign::FusedKernel);
    StealCost popCost = measureStealCost(OsDesign::MultipleKernel);
    std::printf("steal path, one 8-item batch (4-node, cache "
                "plugin on):\n");
    std::printf("  fused:   %7.1f cyc/item, %llu messages, "
                "%llu coherence events\n",
                fusedCost.cyclesPerItem,
                static_cast<unsigned long long>(fusedCost.messages),
                static_cast<unsigned long long>(
                    fusedCost.coherenceDelta));
    std::printf("  popcorn: %7.1f cyc/item, %llu messages, "
                "%llu coherence events\n\n",
                popCost.cyclesPerItem,
                static_cast<unsigned long long>(popCost.messages),
                static_cast<unsigned long long>(
                    popCost.coherenceDelta));

    check(fusedCost.messages == 0,
          "fused steal sends no messages (coherent memory only)");
    check(fusedCost.coherenceDelta > 0,
          "fused steal is visible in the snoop/remote-access "
          "counters (the queue lines actually moved)");
    check(popCost.messages >= 2,
          "popcorn steal pays the request/response message pair");
    check(popCost.cyclesPerItem > fusedCost.cyclesPerItem,
          "fused steal cost per item is below popcorn's (" +
              Table::num(fusedCost.cyclesPerItem, 1) + " vs " +
              Table::num(popCost.cyclesPerItem, 1) + ")");
    double costRatio = fusedCost.cyclesPerItem > 0
                           ? popCost.cyclesPerItem /
                                 fusedCost.cyclesPerItem
                           : 0.0;
    metrics.emplace_back("steal_cost_ratio_popcorn_over_fused",
                         costRatio);
    metrics.emplace_back("fused.steal_items_per_kcycle",
                         fusedCost.cyclesPerItem > 0
                             ? 1000.0 / fusedCost.cyclesPerItem
                             : 0.0);
    metrics.emplace_back("popcorn.steal_items_per_kcycle",
                         popCost.cyclesPerItem > 0
                             ? 1000.0 / popCost.cyclesPerItem
                             : 0.0);

    check(writeBenchJson(jsonPath, metrics), "wrote " + jsonPath);
    return checksExitCode();
}

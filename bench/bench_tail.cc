/**
 * @file
 * Open-loop tail-latency characterisation of the sharded kv-store
 * service loop: throughput vs p50/p99/p999 for both OS designs at
 * N in {2, 4, 8} alternating x86/Arm nodes.
 *
 * Each (design, N) pair is first calibrated with a closed-loop run
 * to find its service capacity, then swept with seeded Poisson
 * arrivals at 0.5x, 0.8x and 1.15x that capacity through the
 * KvFrontEnd (batching + admission control + per-node hot-key
 * cache). The 0.8x point is the "highest stable rate" of the
 * acceptance gates: below saturation, so latency is meaningful, but
 * loaded enough that queueing shows. The 1.15x point drives the loop
 * past capacity to show bounded queues + admission shedding instead
 * of open-loop queueing collapse.
 *
 * Gate metrics are higher-is-better by construction (goodput, and
 * inverse p99 = 1e9 / p99 cycles) so the regression checker's
 * one-sided tolerance works; the raw latency curves live under the
 * non-numeric "curves" key, which the checker ignores.
 *
 * Functional-mode (cache plugin off), all timing in simulated
 * cycles: identical seeds reproduce bit-identical curves on any
 * host. Emits BENCH_tail.json (override with --json <path>).
 */

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bench_util.hh"
#include "stramash/load/engine.hh"

using namespace stramash;
using namespace stramash::bench;

namespace
{

constexpr std::uint64_t kSeed = 42;
constexpr std::size_t kRequests = 2500;

struct Point
{
    double ratePerMcycle = 0.0;
    OpenLoopReport rep;
    bool verified = false;
};

/** Closed-loop capacity (requests per Mcycle) for one config. */
double
calibrate(OsDesign design, std::size_t nodes)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(nodes, MemoryModel::Shared);
    System sys(cfg);

    ShardedKvStore store(sys);
    store.populate();
    const std::uint64_t requests = 2000;
    Cycles spent = store.run(requests);
    return spent ? static_cast<double>(requests) /
                       (static_cast<double>(spent) / 1e6)
                 : 0.0;
}

Point
runPoint(OsDesign design, std::size_t nodes, double ratePerMcycle,
         bool hotKeyCache)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(nodes, MemoryModel::Shared);
    System sys(cfg);

    ShardedKvStore store(sys);
    store.populate();

    ServiceConfig sc;
    sc.hotKeyCache = hotKeyCache;
    KvFrontEnd fe(sys, store, sc);

    OpenLoopConfig oc;
    oc.arrival = ArrivalConfig::poisson(ratePerMcycle, kSeed);
    oc.keys = KeyDistConfig::zipfian(store.keySpace(), 0.99, kSeed + 1);
    oc.requests = kRequests;
    oc.seed = kSeed + 2;

    Point p;
    p.ratePerMcycle = ratePerMcycle;
    p.rep = OpenLoopEngine(oc).run(fe);
    p.verified = store.verify();
    return p;
}

const char *
designName(OsDesign d)
{
    return d == OsDesign::FusedKernel ? "fused" : "popcorn";
}

bool
sameReport(const OpenLoopReport &a, const OpenLoopReport &b)
{
    return a.offered == b.offered && a.accepted == b.accepted &&
           a.shed == b.shed && a.served == b.served &&
           a.batches == b.batches && a.cacheHits == b.cacheHits &&
           a.cacheStale == b.cacheStale &&
           a.cacheMisses == b.cacheMisses &&
           a.invalidationsSent == b.invalidationsSent &&
           a.coherentInvalidations == b.coherentInvalidations &&
           a.meanLatency == b.meanLatency && a.p50 == b.p50 &&
           a.p99 == b.p99 && a.p999 == b.p999 &&
           a.lastCompletion == b.lastCompletion &&
           a.lastArrival == b.lastArrival;
}

/** BENCH_tail.json: flat gate metrics + a nested "curves" object
 *  (non-numeric at top level, so the regression checker skips it). */
bool
writeTailJson(
    const std::string &path,
    const std::vector<std::pair<std::string, double>> &metrics,
    const std::map<std::string,
                   std::map<std::size_t, std::vector<Point>>> &curves)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return false;
    }
    std::fprintf(f, "{\n");
    for (const auto &[name, value] : metrics)
        std::fprintf(f, "  \"%s\": %.6f,\n", name.c_str(), value);
    std::fprintf(f, "  \"curves\": {");
    bool firstD = true;
    for (const auto &[design, byN] : curves) {
        std::fprintf(f, "%s\n    \"%s\": {", firstD ? "" : ",",
                     design.c_str());
        firstD = false;
        bool firstN = true;
        for (const auto &[n, pts] : byN) {
            std::fprintf(f, "%s\n      \"n%zu\": [",
                         firstN ? "" : ",", n);
            firstN = false;
            for (std::size_t i = 0; i < pts.size(); ++i) {
                const Point &p = pts[i];
                std::fprintf(
                    f,
                    "%s\n        {\"rate_per_mcycle\": %.6f, "
                    "\"goodput_per_mcycle\": %.6f, \"p50\": %.1f, "
                    "\"p99\": %.1f, \"p999\": %.1f, "
                    "\"shed_rate\": %.6f, \"cache_hits\": %llu}",
                    i ? "," : "", p.ratePerMcycle,
                    p.rep.goodputPerMcycle(), p.rep.p50, p.rep.p99,
                    p.rep.p999, p.rep.shedRate(),
                    static_cast<unsigned long long>(p.rep.cacheHits));
            }
            std::fprintf(f, "\n      ]");
        }
        std::fprintf(f, "\n    }");
    }
    std::fprintf(f, "\n  }\n}\n");
    std::fclose(f);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    std::string jsonPath = "BENCH_tail.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            jsonPath = argv[++i];
    }

    const std::size_t nodeCounts[] = {2, 4, 8};
    const OsDesign designs[] = {OsDesign::FusedKernel,
                                OsDesign::MultipleKernel};
    // Fractions of the calibrated closed-loop capacity: stable low,
    // highest stable, and past saturation.
    const double rhos[] = {0.5, 0.8, 1.15};

    std::printf("=== Open-loop tail latency "
                "(%zu Poisson arrivals, Zipf 0.99 keys, seed %llu) "
                "===\n\n",
                kRequests, static_cast<unsigned long long>(kSeed));

    Table tab({"design", "nodes", "rate/Mc", "goodput", "p50", "p99",
               "p999", "shed", "hit%", "verified"});
    std::vector<std::pair<std::string, double>> metrics;
    std::map<std::string, std::map<std::size_t, std::vector<Point>>>
        curves;
    std::map<std::size_t, double> fusedUncachedP99;
    std::map<std::size_t, double> fusedCachedP99;
    std::map<std::string, std::map<std::size_t, Point>> midPoints;
    bool allVerified = true;

    for (OsDesign d : designs) {
        for (std::size_t n : nodeCounts) {
            double cap = calibrate(d, n);
            for (double rho : rhos) {
                Point p = runPoint(d, n, rho * cap, true);
                allVerified &= p.verified;
                curves[designName(d)][n].push_back(p);
                double lookups = static_cast<double>(
                    p.rep.cacheHits + p.rep.cacheStale +
                    p.rep.cacheMisses);
                tab.addRow(
                    {designName(d), std::to_string(n),
                     Table::num(p.ratePerMcycle, 1),
                     Table::num(p.rep.goodputPerMcycle(), 1),
                     Table::num(p.rep.p50, 0),
                     Table::num(p.rep.p99, 0),
                     Table::num(p.rep.p999, 0),
                     Table::num(p.rep.shedRate() * 100, 1) + "%",
                     lookups > 0
                         ? Table::num(100.0 * p.rep.cacheHits /
                                          lookups, 1)
                         : "-",
                     p.verified ? "yes" : "NO"});
                if (rho == 0.8) {
                    midPoints[designName(d)][n] = p;
                    std::string prefix = std::string(designName(d)) +
                                         ".n" + std::to_string(n);
                    metrics.emplace_back(prefix + ".goodput_mid",
                                         p.rep.goodputPerMcycle());
                    metrics.emplace_back(
                        prefix + ".p99_inv_mid",
                        p.rep.p99 > 0 ? 1e9 / p.rep.p99 : 0.0);
                    if (d == OsDesign::FusedKernel) {
                        fusedCachedP99[n] = p.rep.p99;
                        Point u = runPoint(d, n, rho * cap, false);
                        allVerified &= u.verified;
                        fusedUncachedP99[n] = u.rep.p99;
                        metrics.emplace_back(
                            prefix + ".cache_p99_gain",
                            u.rep.p99 > 0 && p.rep.p99 > 0
                                ? u.rep.p99 / p.rep.p99
                                : 0.0);
                    }
                }
            }
        }
    }
    tab.print();
    std::printf("\n");

    check(allVerified, "every run verifies end to end "
                       "(host mirror matches every slot)");

    // Determinism: the whole pipeline (arrivals, keys, mix, service
    // loop, percentiles) must be bit-identical for identical seeds.
    {
        Point a = runPoint(OsDesign::FusedKernel, 4,
                           midPoints["fused"][4].ratePerMcycle, true);
        check(sameReport(a.rep, midPoints["fused"][4].rep),
              "identical seeds reproduce a bit-identical report "
              "(fused, 4 nodes, 0.8x capacity)");
    }

    for (std::size_t n : nodeCounts) {
        double gain = fusedCachedP99[n] > 0
                          ? fusedUncachedP99[n] / fusedCachedP99[n]
                          : 0.0;
        check(gain >= 1.05,
              "fused hot-key cache improves p99 at 0.8x capacity, " +
                  std::to_string(n) + " nodes (gain " +
                  Table::num(gain, 2) + "x, gate 1.05x)");
    }

    // Iso-rate comparison: the two designs have very different
    // capacities, so comparing them at 0.8x of *their own* capacity
    // is different absolute load. Serve popcorn's highest-stable
    // rate on the fused design and compare tails at equal traffic.
    for (std::size_t n : nodeCounts) {
        const Point &p = midPoints["popcorn"][n];
        Point iso = runPoint(OsDesign::FusedKernel, n,
                             p.ratePerMcycle, true);
        check(iso.verified && iso.rep.p99 <= p.rep.p99,
              "fused p99 <= popcorn p99 at popcorn's 0.8x rate, " +
                  std::to_string(n) + " nodes (" +
                  Table::num(iso.rep.p99, 0) + " vs " +
                  Table::num(p.rep.p99, 0) + ")");
        metrics.emplace_back(
            "fused.n" + std::to_string(n) + ".iso_rate_p99_gain",
            iso.rep.p99 > 0 ? p.rep.p99 / iso.rep.p99 : 0.0);
    }

    // Overload (1.15x) must shed rather than collapse: non-zero
    // shed rate on every 8-node overload point.
    for (OsDesign d : designs) {
        const Point &over = curves[designName(d)][8].back();
        check(over.rep.shed > 0,
              std::string(designName(d)) +
                  " 8-node overload point sheds via admission "
                  "control (shed " +
                  std::to_string(over.rep.shed) + ")");
    }

    check(writeTailJson(jsonPath, metrics, curves),
          "wrote " + jsonPath);
    return checksExitCode();
}

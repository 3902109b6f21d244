/**
 * @file
 * The repository benchmark program. One process, one thread: it runs a
 * named workload under the fused (Stramash) and the shared-nothing
 * (Popcorn-SHM) design, checks every output, and prints the metrics
 * by name and unit. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload <npb-is|npb-cg|kv-open> --seed <n>
 *             --seconds <s> --trace <0|1> [--spans-out <file>]
 *             [--record]
 *
 * --trace 0 repeats (fused, Popcorn) pairs for --seconds of host time
 * and reports end-to-end metrics as medians over the pairs. --trace 1
 * runs a warm-up pair, an untraced pair and a traced pair, replays the
 * traced pair's cache access stream, and reports per-layer metrics.
 * Spans wrap every call the benchmark makes into the library; they are
 * kept in memory and written to --spans-out at exit. --record prints
 * the simulated fingerprint of the first pair as an expected.hh row.
 * NOTES.md explains the workloads and the metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/core/app.hh"
#include "stramash/core/system.hh"
#include "stramash/load/engine.hh"
#include "stramash/workloads/npb.hh"
#include "stramash/workloads/sharded_kvstore.hh"

#include "expected.hh"

using namespace stramash;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------- spans

/** One timed call into the library. */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the program started
    double end = 0.0;
    int parent = -1;    ///< index of the enclosing span, -1 at the top
    int run = 0;        ///< which design run the span belongs to
};

/**
 * Times calls and, when enabled, records them as nested spans. The
 * timing is always taken (the untraced run needs it too); recording
 * costs one branch when off.
 */
class Spans
{
  public:
    explicit Spans(Clock::time_point origin) : origin_(origin) {}

    void enable(bool on) { on_ = on; }
    void setRun(int run) { run_ = run; }

    /** Run @p fn; @return its host seconds. */
    template <typename Fn>
    double
    time(const char *name, Fn &&fn)
    {
        int id = -1;
        if (on_) {
            id = static_cast<int>(spans_.size());
            spans_.push_back(
                {name, 0.0, 0.0, stack_.empty() ? -1 : stack_.back(),
                 run_});
            stack_.push_back(id);
        }
        auto t0 = Clock::now();
        fn();
        auto t1 = Clock::now();
        if (on_) {
            spans_[id].start = secondsBetween(origin_, t0);
            spans_[id].end = secondsBetween(origin_, t1);
            stack_.pop_back();
        }
        return secondsBetween(t0, t1);
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        out << "[";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "%s\n{\"id\":%zu,\"name\":\"%s\",\"start_s\":"
                          "%.9f,\"end_s\":%.9f,\"parent\":%d,\"run\":%d}",
                          i ? "," : "", i, s.name.c_str(), s.start,
                          s.end, s.parent, s.run);
            out << buf;
        }
        out << "\n]\n";
        return static_cast<bool>(out);
    }

  private:
    Clock::time_point origin_;
    bool on_ = false;
    int run_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ------------------------------------------------------------ workloads

struct Workload
{
    const char *name;
    bool npb;
    const char *kernel;     ///< NPB kernel name
    Addr problemBytes;      ///< NPB working set
    unsigned iterations;    ///< NPB migrating procedures
};

constexpr Addr MiB = Addr{1} << 20;

const Workload kWorkloads[] = {
    {"npb-is", true, "is", 2 * MiB, 5},
    {"npb-cg", true, "cg", 8 * MiB, 3},
    {"kv-open", false, nullptr, 0, 0},
};

constexpr Addr kL3Bytes = 4 * MiB;
constexpr std::size_t kKvNodes = 8;
constexpr double kKvRatePerMcycle = 100.0;
constexpr std::size_t kKvRequests = 100000;

// ------------------------------------------------------ layer counters

/** Named raw counters; per-layer metrics are differences of two. */
using Raw = std::map<std::string, double>;

Raw
collect(System &sys)
{
    Raw r;
    Machine &m = sys.machine();
    for (NodeId n = 0; n < m.nodeCount(); ++n) {
        const Node &node = m.node(n);
        r["sim.instructions"] += static_cast<double>(node.icount());
        r["sim.cycles"] += static_cast<double>(node.cycles());
        r["sim.mem_cycles"] += static_cast<double>(node.memCycles());
        r["sim.ipis"] += static_cast<double>(m.ipisReceived(n));

        const StatGroup &cs = m.caches().nodeStats(n);
        for (const char *c :
             {"l1_accesses", "l1_hits", "l2_accesses", "l2_hits",
              "l3_accesses", "l3_hits", "local_mem_hits",
              "snoop_invalidates", "snoop_datas", "back_invalidates",
              "writebacks"})
            r[std::string("cache.") + c] +=
                static_cast<double>(cs.value(c));
        r["cache.remote_mem_hits"] += static_cast<double>(
            cs.value("remote_mem_hits") +
            cs.value("remote_shared_mem_hits"));

        const StatGroup &ks = sys.kernel(n).stats();
        r["kernel.page_faults"] +=
            static_cast<double>(ks.value("page_faults"));
        r["kernel.anon_faults"] +=
            static_cast<double>(ks.value("anon_faults"));
        r["fused.foreign_inserts"] +=
            static_cast<double>(ks.value("stramash_foreign_inserts"));
        r["fused.shared_maps"] +=
            static_cast<double>(ks.value("stramash_shared_maps"));
    }
    r["msg.messages"] = static_cast<double>(sys.msg().messagesSent());
    r["msg.bytes"] = static_cast<double>(sys.msg().bytesSent());
    r["msg.ring_full"] =
        static_cast<double>(sys.msg().stats().value("ring_full"));
    r["dsm.replicated_pages"] =
        static_cast<double>(sys.replicatedPages());
    if (DsmEngine *dsm = sys.dsmEngine()) {
        r["dsm.invalidations"] =
            static_cast<double>(dsm->invalidations());
        r["dsm.writeback_actions"] =
            static_cast<double>(dsm->writebackActions());
    }
    return r;
}

Raw
minus(const Raw &after, const Raw &before)
{
    Raw d = after;
    for (const auto &[k, v] : before)
        d[k] -= v;
    return d;
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// ----------------------------------------------------------- one run

/** One compact captured access of the charged stream. */
struct AccessRecord
{
    Addr addr;
    std::uint32_t size;
    std::uint8_t node;
    std::uint8_t type;
};
static_assert(sizeof(AccessRecord) == 16);

/** A captured access stream and the machine it ran on. */
struct Capture
{
    std::vector<AccessRecord> records;
    std::unique_ptr<MachineConfig> machineConfig;
};

/** What one design's run produced. */
struct DesignResult
{
    // Host seconds.
    double systemS = 0.0;   ///< System constructor
    double setupS = 0.0;    ///< all set-up, System included
    double populateS = 0.0; ///< ShardedKvStore::populate
    double runS = 0.0;      ///< the measured simulation calls
    double verifyS = 0.0;   ///< ShardedKvStore::verify
    // Simulated outputs.
    Cycles cycles = 0;      ///< runtime (NPB) / last completion (kv)
    double p99 = 0.0;       ///< p99 request latency, cycles
    ICount inst = 0;        ///< instructions retired in the run
    std::uint64_t checksum = 0;
    // Operations.
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    // Per-layer counters and ratios over the run.
    Raw layer;
};

DesignResult
runNpb(const Workload &w, OsDesign design, std::uint64_t seed,
       Spans &spans, Capture *capture)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.memoryModel = MemoryModel::Shared;
    cfg.transport = Transport::SharedMemory;
    cfg.l3Size = kL3Bytes;

    DesignResult r;
    std::unique_ptr<System> sys;
    std::unique_ptr<App> app;
    r.systemS = spans.time("System::System",
                           [&] { sys = std::make_unique<System>(cfg); });
    r.setupS = r.systemS + spans.time("App::App", [&] {
                   app = std::make_unique<App>(*sys, 0);
               });

    NpbConfig ncfg;
    ncfg.iterations = w.iterations;
    ncfg.problemBytes = w.problemBytes;
    ncfg.seed = seed;

    r.runS = spans.time("System::resetExperimentCounters",
                        [&] { sys->resetExperimentCounters(); });
    Raw before = collect(*sys);
    if (capture) {
        capture->machineConfig =
            std::make_unique<MachineConfig>(sys->machine().config());
        auto &recs = capture->records;
        sys->machine().setTraceHooks(
            [&recs](NodeId n, AccessType t, Addr a, unsigned size) {
                if (size != 0)
                    recs.push_back({a, size, static_cast<std::uint8_t>(n),
                                    static_cast<std::uint8_t>(t)});
            },
            nullptr);
    }
    NpbResult res;
    r.runS += spans.time("NpbKernel::run", [&] {
        res = makeNpbKernel(w.kernel)->run(*app, ncfg);
    });
    if (capture)
        sys->machine().clearTraceHooks();

    r.layer = minus(collect(*sys), before);
    r.cycles = sys->runtime();
    r.p99 = static_cast<double>(r.cycles);
    r.inst = static_cast<ICount>(r.layer["sim.instructions"]);
    r.checksum = res.checksum;
    r.attempted = 1;
    r.failed = res.verified ? 0 : 1;
    r.layer["ops"] = w.iterations;

    app.reset();
    sys.reset();
    return r;
}

DesignResult
runKv(OsDesign design, std::uint64_t seed, Spans &spans)
{
    SystemConfig cfg;
    cfg.osDesign = design;
    cfg.transport = Transport::SharedMemory;
    cfg.cachePluginEnabled = false;
    cfg.topology = TopologySpec::alternating(kKvNodes, MemoryModel::Shared);

    DesignResult r;
    std::unique_ptr<System> sys;
    std::unique_ptr<ShardedKvStore> store;
    std::unique_ptr<KvFrontEnd> fe;
    r.systemS = spans.time("System::System",
                           [&] { sys = std::make_unique<System>(cfg); });
    ShardedKvConfig kcfg;
    kcfg.seed = seed + 3;
    r.setupS = r.systemS;
    r.setupS += spans.time("ShardedKvStore::ShardedKvStore", [&] {
        store = std::make_unique<ShardedKvStore>(*sys, kcfg);
    });
    r.populateS = spans.time("ShardedKvStore::populate",
                             [&] { store->populate(); });
    r.setupS += r.populateS;
    ServiceConfig scfg;
    scfg.hotKeyCache = true;
    r.setupS += spans.time("KvFrontEnd::KvFrontEnd", [&] {
        fe = std::make_unique<KvFrontEnd>(*sys, *store, scfg);
    });

    OpenLoopConfig ocfg;
    ocfg.arrival = ArrivalConfig::poisson(kKvRatePerMcycle, seed);
    ocfg.keys = KeyDistConfig::zipfian(store->keySpace(), 0.99, seed + 1);
    ocfg.requests = kKvRequests;
    ocfg.seed = seed + 2;

    Raw before = collect(*sys);
    OpenLoopReport rep;
    r.runS = spans.time("OpenLoopEngine::run",
                        [&] { rep = OpenLoopEngine(ocfg).run(*fe); });
    bool verified = false;
    r.verifyS = spans.time("ShardedKvStore::verify",
                           [&] { verified = store->verify(); });

    r.layer = minus(collect(*sys), before);
    r.cycles = rep.lastCompletion;
    r.p99 = rep.p99;
    r.inst = static_cast<ICount>(r.layer["sim.instructions"]);
    r.attempted = rep.offered;
    std::uint64_t failed = (rep.offered - rep.served) +
                           store->requestsShed() +
                           store->unreachableForwards();
    r.failed = verified ? std::min(failed, rep.offered) : rep.offered;

    const StatGroup &ls = fe->stats();
    auto hist = [&](const char *name) { return ls.findHistogram(name); };
    double lookups = static_cast<double>(rep.cacheHits + rep.cacheStale +
                                         rep.cacheMisses);
    Raw &l = r.layer;
    l["ops"] = static_cast<double>(rep.offered);
    l["load.batches"] = static_cast<double>(rep.batches);
    l["load.mean_batch"] = hist("batch_size") ? hist("batch_size")->mean()
                                              : 0.0;
    l["load.queue_depth_p99"] =
        hist("queue_depth") ? hist("queue_depth")->percentile(0.99) : 0.0;
    l["load.cache_hit_ratio"] =
        ratio(static_cast<double>(rep.cacheHits), lookups);
    l["load.cache_stale"] = static_cast<double>(rep.cacheStale);
    l["load.invalidations_sent"] =
        static_cast<double>(rep.invalidationsSent);
    l["load.coherent_invalidations"] =
        static_cast<double>(rep.coherentInvalidations);
    l["load.shed"] = static_cast<double>(rep.shed +
                                         ls.value("degraded_shed"));
    l["kv.cross_shard_ratio"] =
        ratio(static_cast<double>(store->crossShardRequests()),
              static_cast<double>(store->requestsServed()));

    fe.reset();
    store.reset();
    sys.reset();
    return r;
}

/** One run of each design on the same inputs. */
struct Pair
{
    DesignResult fused;
    DesignResult popcorn;

    double runS() const { return fused.runS + popcorn.runS; }
    double setupS() const { return fused.setupS + popcorn.setupS; }
    Expected
    fingerprint(const char *workload, std::uint64_t seed) const
    {
        return {workload,     seed,         fused.cycles, popcorn.cycles,
                fused.inst,   popcorn.inst, fused.p99,    popcorn.p99,
                fused.checksum};
    }
};

bool
sameSimulation(const Expected &a, const Expected &b)
{
    return a.fusedCycles == b.fusedCycles &&
           a.popcornCycles == b.popcornCycles &&
           a.fusedInst == b.fusedInst && a.popcornInst == b.popcornInst &&
           a.fusedP99 == b.fusedP99 && a.popcornP99 == b.popcornP99 &&
           a.checksum == b.checksum;
}

const Expected *
recorded(const std::string &workload, std::uint64_t seed)
{
    for (const Expected &e : kExpected)
        if (workload == e.workload && seed == e.seed)
            return &e;
    return nullptr;
}

Pair
runPair(const Workload &w, std::uint64_t seed, Spans &spans,
        Capture *fusedCapture = nullptr, Capture *popcornCapture = nullptr)
{
    auto run = [&](OsDesign design, Capture *capture) {
        return w.npb ? runNpb(w, design, seed, spans, capture)
                     : runKv(design, seed, spans);
    };
    Pair p;
    spans.setRun(0);
    spans.time("fused", [&] {
        p.fused = run(OsDesign::FusedKernel, fusedCapture);
    });
    spans.setRun(1);
    spans.time("popcorn", [&] {
        p.popcorn = run(OsDesign::MultipleKernel, popcornCapture);
    });
    // Both designs compute the same answer on the same inputs.
    if (w.npb && p.fused.checksum != p.popcorn.checksum) {
        p.fused.failed = p.fused.attempted;
        p.popcorn.failed = p.popcorn.attempted;
    }
    return p;
}

/**
 * Replay a captured stream through a fresh machine of the same
 * configuration. @return host seconds; @p accesses receives the line
 * accesses the replay made.
 */
double
replay(const Capture &cap, Spans &spans, double &accesses)
{
    Machine m(*cap.machineConfig);
    CoherenceDomain &caches = m.caches();
    auto l1Accesses = [&] {
        double sum = 0.0;
        for (NodeId n = 0; n < m.nodeCount(); ++n)
            sum += static_cast<double>(
                caches.nodeStats(n).value("l1_accesses"));
        return sum;
    };
    double before = l1Accesses();
    double s = spans.time("CoherenceDomain::access", [&] {
        for (const AccessRecord &a : cap.records)
            caches.access(a.node, static_cast<AccessType>(a.type), a.addr,
                          a.size);
    });
    accesses = l1Accesses() - before;
    return s;
}

// -------------------------------------------------------------- output

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** The paper's figure beside this workload's fused_speedup. */
const char *
paperReference(const Workload &w)
{
    std::string name = w.name;
    if (name == "npb-is")
        return "paper: IS vs Popcorn-SHM up to 2.1x";
    if (name == "npb-cg")
        return "paper: CG at a 4 MiB L3 0.66 (-34%, Fig. 10)";
    return "paper: no open-loop figure (Fig. 14 times a migrated server)";
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    bool trace = false;
    bool record = false;
    std::string spansOut;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        bool hasValue = i + 1 < argc;
        if (arg == "--record") {
            a.record = true;
        } else if (!hasValue) {
            return false;
        } else if (arg == "--workload") {
            a.workload = argv[++i];
            haveWorkload = true;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace") {
            a.trace = std::strcmp(argv[++i], "0") != 0;
        } else if (arg == "--spans-out") {
            a.spansOut = argv[++i];
        } else {
            return false;
        }
    }
    return haveWorkload;
}

/** Failure accounting of one run: operations over all pairs. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    add(const Pair &p)
    {
        attempted += p.fused.attempted + p.popcorn.attempted;
        failed += p.fused.failed + p.popcorn.failed;
    }

    /** Count every operation of @p p as failed. */
    void
    fail(const Pair &p)
    {
        failed += p.fused.attempted + p.popcorn.attempted -
                  (p.fused.failed + p.popcorn.failed);
    }
};

/**
 * Check @p p's simulated outputs against the first pair of the run and
 * against the recorded values for this seed. @return true when they
 * agree.
 */
bool
checkSimulation(const Workload &w, std::uint64_t seed, const Pair &p,
                const Expected &first)
{
    Expected got = p.fingerprint(w.name, seed);
    if (!sameSimulation(got, first)) {
        std::fprintf(stderr, "error: %s seed %llu is not deterministic "
                             "within one run\n",
                     w.name, static_cast<unsigned long long>(seed));
        return false;
    }
    if (const Expected *e = recorded(w.name, seed);
        e && !sameSimulation(got, *e)) {
        std::fprintf(stderr,
                     "error: %s seed %llu drifted from the recorded "
                     "simulation: fused %llu vs %llu cycles, popcorn "
                     "%llu vs %llu cycles\n",
                     w.name, static_cast<unsigned long long>(seed),
                     static_cast<unsigned long long>(got.fusedCycles),
                     static_cast<unsigned long long>(e->fusedCycles),
                     static_cast<unsigned long long>(got.popcornCycles),
                     static_cast<unsigned long long>(e->popcornCycles));
        return false;
    }
    return true;
}

int
runEndToEnd(const Workload &w, const Args &args, Spans &spans)
{
    std::vector<Pair> pairs;
    Tally tally;
    auto start = Clock::now();
    do {
        Pair p = runPair(w, args.seed, spans);
        tally.add(p);
        const Pair &first = pairs.empty() ? p : pairs.front();
        if (!checkSimulation(w, args.seed, p,
                             first.fingerprint(w.name, args.seed)))
            tally.fail(p);
        pairs.push_back(std::move(p));
    } while (secondsBetween(start, Clock::now()) < args.seconds);

    if (args.record) {
        Expected e = pairs.front().fingerprint(w.name, args.seed);
        std::printf("RECORD {\"%s\", %llu, %llu, %llu, %llu, %llu, "
                    "%.17g, %.17g, %lluull},\n",
                    e.workload, static_cast<unsigned long long>(e.seed),
                    static_cast<unsigned long long>(e.fusedCycles),
                    static_cast<unsigned long long>(e.popcornCycles),
                    static_cast<unsigned long long>(e.fusedInst),
                    static_cast<unsigned long long>(e.popcornInst),
                    e.fusedP99, e.popcornP99,
                    static_cast<unsigned long long>(e.checksum));
    }

    // The first pair runs on a cold heap (fresh pages for every guest
    // frame); it only counts when it is the only one.
    std::vector<double> host, setup, mips;
    for (std::size_t i = pairs.size() > 1 ? 1 : 0; i < pairs.size(); ++i) {
        const Pair &p = pairs[i];
        host.push_back(p.runS());
        setup.push_back(p.setupS());
        mips.push_back(static_cast<double>(p.fused.inst + p.popcorn.inst) /
                       p.runS() / 1e6);
    }
    const Pair &p = pairs.front();
    // Popcorn's simulated cost over fused's: runtime on NPB, p99 at
    // the same offered rate on kv-open.
    double speedup =
        w.npb ? ratio(static_cast<double>(p.popcorn.cycles),
                      static_cast<double>(p.fused.cycles))
              : ratio(p.popcorn.p99, p.fused.p99);
    std::vector<Metric> metrics = {
        {"host_wall_s", median(host), "s"},
        {"setup_s", median(setup), "s"},
        {"sim_mips", median(mips), "Minst/s"},
        {"peak_rss_mb", peakRssMiB(), "MiB"},
        {"fused_mcycles", static_cast<double>(p.fused.cycles) / 1e6,
         "Mcycles"},
        {"popcorn_mcycles", static_cast<double>(p.popcorn.cycles) / 1e6,
         "Mcycles"},
        {"fused_speedup", speedup, "x"},
        {"fused_p99_kcycles", p.fused.p99 / 1e3, "kcycles"},
        {"popcorn_p99_kcycles", p.popcorn.p99 / 1e3, "kcycles"},
    };

    std::printf("workload %s, seed %llu: %zu (fused, popcorn) pairs in "
                "%.2f s\n",
                w.name, static_cast<unsigned long long>(args.seed),
                pairs.size(), secondsBetween(start, Clock::now()));
    std::printf("  host seconds per pair (fused + popcorn):");
    for (const Pair &q : pairs)
        std::printf(" %.3f+%.3f", q.fused.runS, q.popcorn.runS);
    std::printf("\n");
    for (const Metric &m : metrics)
        std::printf("  %-20s %16.6f %-8s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(),
                    m.name == "fused_speedup" ? paperReference(w) : "");
    std::printf("  %-20s %16.6f ratio (%llu of %llu operations)\n",
                "failed_ratio",
                ratio(static_cast<double>(tally.failed),
                      static_cast<double>(tally.attempted)),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    std::printf("  the model is unvalidated against hardware; the paper's "
                "figures are its own simulator runs\n");
    if (!recorded(w.name, args.seed))
        std::printf("  no recorded simulation for this seed: checked "
                    "verification and run-to-run determinism only\n");

    printResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

/** Per-layer metrics of one design, suffixed with @p design. */
void
addDesignLayers(std::vector<Metric> &out, const DesignResult &r,
                const char *design, double cacheHostS,
                double cacheAccesses)
{
    const Raw &l = r.layer;
    auto get = [&](const char *k) {
        auto it = l.find(k);
        return it == l.end() ? 0.0 : it->second;
    };
    auto add = [&](const std::string &name, double v, const char *unit) {
        out.push_back({name + "." + design, v, unit});
    };
    add("cache.accesses", cacheAccesses, "count");
    add("cache.l1_hit_ratio",
        ratio(get("cache.l1_hits"), get("cache.l1_accesses")), "ratio");
    add("cache.l2_hit_ratio",
        ratio(get("cache.l2_hits"), get("cache.l2_accesses")), "ratio");
    add("cache.l3_hit_ratio",
        ratio(get("cache.l3_hits"), get("cache.l3_accesses")), "ratio");
    for (const char *c : {"cache.local_mem_hits", "cache.remote_mem_hits",
                          "cache.snoop_invalidates", "cache.snoop_datas",
                          "cache.back_invalidates", "cache.writebacks"})
        add(c, get(c), "count");
    add("cache.host_s", cacheHostS, "s");
    add("cache.ns_per_access", ratio(cacheHostS * 1e9, cacheAccesses),
        "ns");

    add("sim.instructions", get("sim.instructions"), "count");
    add("sim.ipis", get("sim.ipis"), "count");
    add("sim.mem_cycle_share",
        ratio(get("sim.mem_cycles"), get("sim.cycles")), "ratio");
    add("kernel.page_faults", get("kernel.page_faults"), "count");
    add("kernel.anon_faults", get("kernel.anon_faults"), "count");

    add("msg.messages", get("msg.messages"), "count");
    add("msg.bytes", get("msg.bytes"), "B");
    add("msg.per_request", ratio(get("msg.messages"), get("ops")),
        "count");
    add("msg.ring_full", get("msg.ring_full"), "count");

    add("load.batches", get("load.batches"), "count");
    add("load.mean_batch", get("load.mean_batch"), "count");
    add("load.queue_depth_p99", get("load.queue_depth_p99"), "count");
    add("load.cache_hit_ratio", get("load.cache_hit_ratio"), "ratio");
    for (const char *c : {"load.cache_stale", "load.invalidations_sent",
                          "load.coherent_invalidations", "load.shed"})
        add(c, get(c), "count");

    add("workloads.run_s", r.runS, "s");
    add("workloads.above_cache_s", r.runS - cacheHostS, "s");
    add("workloads.populate_s", r.populateS, "s");
    add("workloads.verify_s", r.verifyS, "s");
    add("kv.cross_shard_ratio", get("kv.cross_shard_ratio"), "ratio");
    add("core.system_s", r.systemS, "s");
}

int
runTraced(const Workload &w, const Args &args, Spans &spans)
{
    Tally tally;
    // A warm-up pair, then the untraced reference pair: host time for
    // the overhead ratio and the cache access count the replay must
    // reproduce.
    Pair warm = runPair(w, args.seed, spans);
    tally.add(warm);
    Expected first = warm.fingerprint(w.name, args.seed);
    if (!checkSimulation(w, args.seed, warm, first))
        tally.fail(warm);
    Pair plain = runPair(w, args.seed, spans);
    tally.add(plain);
    if (!checkSimulation(w, args.seed, plain, first))
        tally.fail(plain);

    spans.enable(true);
    Capture fusedCap, popcornCap;
    fusedCap.records.reserve(
        static_cast<std::size_t>(plain.fused.layer["cache.l1_accesses"]));
    popcornCap.records.reserve(
        static_cast<std::size_t>(plain.popcorn.layer["cache.l1_accesses"]));
    Pair traced = runPair(w, args.seed, spans, w.npb ? &fusedCap : nullptr,
                          w.npb ? &popcornCap : nullptr);
    tally.add(traced);
    bool tracedOk = checkSimulation(w, args.seed, traced, first);

    // Replay each captured stream; its line accesses must equal the
    // untraced run's L1 accesses.
    double fusedCacheS = 0.0, popcornCacheS = 0.0;
    double fusedAccesses = 0.0, popcornAccesses = 0.0;
    if (w.npb) {
        spans.setRun(2);
        fusedCacheS = replay(fusedCap, spans, fusedAccesses);
        fusedCap.records = {};
        spans.setRun(3);
        popcornCacheS = replay(popcornCap, spans, popcornAccesses);
        popcornCap.records = {};
        if (fusedAccesses != plain.fused.layer["cache.l1_accesses"] ||
            popcornAccesses != plain.popcorn.layer["cache.l1_accesses"]) {
            std::fprintf(stderr, "error: replayed cache accesses differ "
                                 "from the untraced run\n");
            tracedOk = false;
        }
    }
    if (!tracedOk)
        tally.fail(traced);

    std::vector<Metric> metrics;
    addDesignLayers(metrics, traced.fused, "fused", fusedCacheS,
                    fusedAccesses);
    addDesignLayers(metrics, traced.popcorn, "popcorn", popcornCacheS,
                    popcornAccesses);
    Raw &pl = traced.popcorn.layer;
    Raw &fl = traced.fused.layer;
    metrics.push_back(
        {"dsm.replicated_pages", pl["dsm.replicated_pages"], "count"});
    metrics.push_back({"dsm.invalidations", pl["dsm.invalidations"],
                       "count"});
    metrics.push_back({"dsm.writeback_actions",
                       pl["dsm.writeback_actions"], "count"});
    metrics.push_back({"fused.foreign_inserts", fl["fused.foreign_inserts"],
                       "count"});
    metrics.push_back({"fused.shared_maps", fl["fused.shared_maps"],
                       "count"});
    metrics.push_back({"trace.overhead_ratio",
                       ratio(traced.runS(), plain.runS()), "ratio"});

    std::printf("workload %s, seed %llu: traced per-layer metrics\n",
                w.name, static_cast<unsigned long long>(args.seed));
    for (const Metric &m : metrics)
        std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    if (!args.spansOut.empty() && !spans.write(args.spansOut))
        std::fprintf(stderr, "warning: cannot write spans to %s\n",
                     args.spansOut.c_str());
    printResult(tally.failed == 0, tally.attempted, tally.failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Spans spans(Clock::now());
    setQuiet(true);
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <s> --trace <0|1> [--spans-out <file>] "
                     "[--record]\n");
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &c : kWorkloads)
        if (args.workload == c.name)
            w = &c;
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    return args.trace ? runTraced(*w, args, spans)
                      : runEndToEnd(*w, args, spans);
}

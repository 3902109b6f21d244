/**
 * @file
 * Cross-layer event tracing (the `stramash/trace` subsystem).
 *
 * Every simulated component can emit timestamped TraceEvents onto its
 * node's TraceBuffer: page faults, inter-kernel messages, cross-ISA
 * IPIs, futex operations, migrations, allocator block moves and
 * coherence actions. Timestamps are the node's icount-driven cycle
 * clock, so a trace lines up exactly with the timing model that
 * produced the run's Figure/Table numbers.
 *
 * Design goals, in order:
 *
 *  1. Near-zero cost when disabled: one predictable branch per
 *     potential event (`Tracer::enabledFor`), no allocation, no
 *     clock read.
 *  2. Bounded memory: each node owns a fixed-capacity ring of POD
 *     records, allocated on the node's first recorded event; when
 *     full the oldest record is overwritten and a dropped-events
 *     counter advances.
 *  3. Tool-friendly output: ChromeTraceExporter (chrome_exporter.hh)
 *     turns the merged buffers into Chrome/Perfetto JSON, one track
 *     per node.
 */

#ifndef STRAMASH_TRACE_TRACE_HH
#define STRAMASH_TRACE_TRACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "stramash/common/logging.hh"
#include "stramash/common/types.hh"

namespace stramash
{

/** Event categories; one bit each in TraceConfig::categoryMask. */
enum class TraceCategory : std::uint8_t {
    Fault = 0,     ///< page-fault handling (local / DSM / fused paths)
    Msg = 1,       ///< message layer send / receive
    Ipi = 2,       ///< cross-ISA IPI delivery
    Futex = 3,     ///< futex wait / wake
    Migrate = 4,   ///< thread and whole-process migration
    Alloc = 5,     ///< global-allocator block online / offline
    Coherence = 6, ///< writebacks and cross-node snoops
    App = 7,       ///< workload-defined phases
    Chaos = 8,     ///< injected faults, retries, timeouts, give-ups
    Sched = 9,     ///< run-queue ops, placement decisions, steals
};

inline constexpr unsigned traceCategoryCount = 10;

/** Human-readable category name ("fault", "msg", ...). */
const char *traceCategoryName(TraceCategory c);

/** Mask bit for one category. */
constexpr std::uint32_t
traceCategoryBit(TraceCategory c)
{
    return std::uint32_t{1} << static_cast<unsigned>(c);
}

/** Mask covering every category. */
inline constexpr std::uint32_t traceAllCategories =
    (std::uint32_t{1} << traceCategoryCount) - 1;

/** Knobs wired through SystemConfig / MachineConfig. */
struct TraceConfig
{
    /** Master switch; everything is a no-op when false. */
    bool enabled = false;
    /** Ring capacity per node, in events. */
    std::size_t bufferEntries = 1 << 16;
    /** Only categories with their bit set are recorded. */
    std::uint32_t categoryMask = traceAllCategories;
};

/**
 * One recorded event. POD: `name` must point at a string with static
 * storage duration (a literal or msgTypeName()-style table entry) —
 * the buffer stores the pointer, never a copy.
 */
struct TraceEvent
{
    TraceCategory category;
    const char *name;
    NodeId node;
    Pid pid; ///< 0 when no task is involved
    Cycles startCycles;
    Cycles endCycles; ///< == startCycles for instant events
    std::uint64_t arg0;
    std::uint64_t arg1;
};

/**
 * A fixed-capacity drop-oldest ring of events. The ring is allocated
 * by the first record(), so a buffer that never records holds no
 * event storage. Single-threaded, like the rest of the simulator:
 * record() is a couple of stores.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity);

    void record(const TraceEvent &ev);

    /** Configured capacity, whether or not the ring is allocated. */
    std::size_t capacity() const { return capacity_; }
    /** Events currently held (<= capacity). */
    std::size_t size() const { return size_; }
    /** Events overwritten because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }
    /** Total events ever recorded (held + dropped). */
    std::uint64_t recorded() const { return size_ + dropped_; }

    /** Held events, oldest first. */
    std::vector<TraceEvent> snapshot() const;

    void clear();

  private:
    std::size_t capacity_;
    /** Empty until the first record(), then capacity_ events. */
    std::vector<TraceEvent> ring_;
    std::size_t head_ = 0; ///< next write slot
    std::size_t size_ = 0;
    std::uint64_t dropped_ = 0;
};

/**
 * The per-machine tracer: one TraceBuffer per node plus the clock
 * used to timestamp events. Owned by sim::Machine; every layer
 * reaches it through `machine().tracer()`.
 */
class Tracer
{
  public:
    /** Maps a node id to its current cycle count. */
    using ClockFn = std::function<Cycles(NodeId)>;

    Tracer(const TraceConfig &cfg, std::size_t nodeCount,
           ClockFn clock);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    const TraceConfig &config() const { return cfg_; }

    bool enabled() const { return cfg_.enabled; }

    /** The one check on every potential-event path. */
    bool
    enabledFor(TraceCategory c) const
    {
        return cfg_.enabled &&
               (cfg_.categoryMask & traceCategoryBit(c)) != 0;
    }

    /** Current cycle count of @p node's clock. */
    Cycles now(NodeId node) const { return clock_(node); }

    /** Record a complete event with explicit timestamps. */
    void emit(TraceCategory c, const char *name, NodeId node, Pid pid,
              Cycles start, Cycles end, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0);

    /** Record a zero-duration event stamped "now". */
    void instant(TraceCategory c, const char *name, NodeId node,
                 Pid pid = 0, std::uint64_t arg0 = 0,
                 std::uint64_t arg1 = 0);

    std::size_t nodeCount() const { return buffers_.size(); }
    TraceBuffer &buffer(NodeId node);
    const TraceBuffer &buffer(NodeId node) const;

    /** Every held event across all nodes, sorted by startCycles
     *  (ties keep per-node order). */
    std::vector<TraceEvent> merged() const;

    /** Sum of per-buffer drop counters. */
    std::uint64_t totalDropped() const;
    /** Sum of per-buffer held events. */
    std::uint64_t totalEvents() const;

    /** Empty every buffer (between experiment phases). */
    void clear();

  private:
    TraceConfig cfg_;
    ClockFn clock_;
    std::vector<TraceBuffer> buffers_;
};

/**
 * RAII span: reads the node clock at construction and records one
 * complete event at destruction. When the tracer is disabled (or the
 * category masked) construction is a single branch and nothing else.
 */
class TraceSpan
{
  public:
    TraceSpan(Tracer &tracer, TraceCategory c, const char *name,
              NodeId node, Pid pid = 0, std::uint64_t arg0 = 0,
              std::uint64_t arg1 = 0)
    {
        if (!tracer.enabledFor(c))
            return;
        tracer_ = &tracer;
        category_ = c;
        name_ = name;
        node_ = node;
        pid_ = pid;
        arg0_ = arg0;
        arg1_ = arg1;
        start_ = tracer.now(node);
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    ~TraceSpan()
    {
        if (tracer_) {
            tracer_->emit(category_, name_, node_, pid_, start_,
                          tracer_->now(node_), arg0_, arg1_);
        }
    }

  private:
    Tracer *tracer_ = nullptr;
    TraceCategory category_ = TraceCategory::App;
    const char *name_ = nullptr;
    NodeId node_ = 0;
    Pid pid_ = 0;
    Cycles start_ = 0;
    std::uint64_t arg0_ = 0;
    std::uint64_t arg1_ = 0;
};

// Span macro: one uniquely named TraceSpan for the enclosing scope.
#define STRAMASH_TRACE_CONCAT2(a, b) a##b
#define STRAMASH_TRACE_CONCAT(a, b) STRAMASH_TRACE_CONCAT2(a, b)
#define STRAMASH_TRACE_SPAN(...)                                           \
    ::stramash::TraceSpan STRAMASH_TRACE_CONCAT(stramashTraceSpan_,        \
                                                __LINE__)(__VA_ARGS__)

} // namespace stramash

#endif // STRAMASH_TRACE_TRACE_HH

/**
 * @file
 * The real scheduler: per-node run queues, heterogeneity-aware
 * placement, and cross-kernel work stealing.
 *
 * Each kernel node owns one run queue of detached work items. A
 * pluggable placement policy decides where new work (and new tasks —
 * the Scheduler implements core::Placer) starts:
 *
 *   - IsaAffinity: honour the ISA preference; offload hops are the
 *     cyclic next-alive node, bit-identical to App::migrateToNext().
 *   - LeastLoaded: the alive node with the smallest clock + queued
 *     weight.
 *   - CostModel: least-loaded, but a move only happens when the load
 *     benefit outweighs the migration charge plus the warm-cache
 *     refill of the task's footprint.
 *
 * Work stealing runs between drain rounds: an idle node steals from
 * the deepest queue, the way each OS design can:
 *
 *   - FusedKernel: the thief pops the victim's run queue directly
 *     out of coherent shared memory — a load of the queue anchor, a
 *     claiming store, and one line per stolen item. No messages; the
 *     cost is cache traffic, visible in the snoop counters.
 *   - MultipleKernel (Popcorn): nothing is shared, so the thief pays
 *     a StealRequest/StealResponse RPC round-trip through the
 *     transport, riding the resilient retry/backoff machinery.
 *
 * A victim always retains at least one item, so a round in which a
 * steal happens still executes work and the drain keeps going.
 *
 * Dead nodes drain through the crash-recovery path: the Scheduler
 * registers a CrashManager recovery hook, and the survivor adopts
 * the dead node's queued items during the same pass that re-homes
 * tasks and futex waiters.
 */

#ifndef STRAMASH_SCHED_SCHEDULER_HH
#define STRAMASH_SCHED_SCHEDULER_HH

#include <deque>
#include <functional>

#include "stramash/core/app.hh"
#include "stramash/core/system.hh"

namespace stramash
{

/** Which placement policy drives place()/offloadTarget(). */
enum class PlacementPolicy {
    /** ISA preference; offload = cyclic next alive (migrateToNext). */
    IsaAffinity,
    /** Smallest clock + queued-weight among alive nodes. */
    LeastLoaded,
    /** LeastLoaded gated by migration charge + warm-cache refill. */
    CostModel,
};

struct SchedConfig
{
    PlacementPolicy policy = PlacementPolicy::LeastLoaded;
    /** Idle-node work stealing between drain rounds. */
    bool stealing = true;
    /** Max items moved per steal (victim keeps >= 1 regardless). */
    unsigned stealBatch = 8;
    /** Items one node executes per drain round. */
    std::size_t runBlock = 64;
    /** CostModel: flat charge for moving a task across nodes
     *  (state transformation, cold TLB/branch state). */
    Cycles migrationChargeCycles = 8000;
    /** CostModel: refill cost per cache line of warm footprint. */
    Cycles refillCyclesPerLine = 40;
};

/**
 * One unit of schedulable work. Detached from any node: fn runs on
 * whichever node's queue it is popped from (that node's id is the
 * argument), so a stolen item simply executes — and charges — on the
 * thief.
 */
struct WorkItem
{
    /** Stable identity, for traces and differential checks. */
    std::uint64_t tag = 0;
    /** Expected compute weight in cycles (load accounting). */
    std::uint64_t weight = 0;
    /** Warm-cache footprint in bytes (cost model). */
    std::uint64_t footprintBytes = 0;
    std::function<void(NodeId)> fn;
};

class Scheduler final : public Placer
{
  public:
    /** Attaches itself as @p sys's Placer until destroyed. */
    explicit Scheduler(System &sys, SchedConfig cfg = {});
    ~Scheduler() override;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    System &system() { return sys_; }
    const SchedConfig &config() const { return cfg_; }

    // ---- core::Placer ----

    /** Policy-chosen start node for a new task (pin always wins). */
    NodeId place(const PlacementHints &hints) override;

    /**
     * Where a task at @p from should run its next offloadable phase.
     * IsaAffinity reproduces App::migrateToNext() exactly; the load
     * policies answer least-loaded, the cost model only moves when
     * the benefit clears the migration + refill charge.
     */
    NodeId offloadTarget(NodeId from,
                         const PlacementHints &hints) override;

    // ---- run queues ----

    /** Enqueue @p item on @p node (slides to the next alive node if
     *  @p node is dead). @return the node actually used. */
    NodeId submitTo(NodeId node, WorkItem item);

    std::size_t queueDepth(NodeId node) const;
    std::size_t totalQueued() const;
    std::uint64_t itemsExecuted() const { return executed_; }

    /**
     * Drain every run queue: rounds of (every alive node pops and
     * runs up to runBlock items, in node order) with a steal round
     * between rounds, until a round executes nothing.
     * @return the max-node-runtime delta the drain cost.
     */
    Cycles runInline();

    // ---- steal primitives (shared with the load front end) ----

    /** Deepest-queue victim for @p thief (>= 2 items, alive), or
     *  invalidNode when nobody is worth stealing from. */
    NodeId chooseVictim(NodeId thief) const;

    /**
     * Charge the design-specific steal path for a transfer of
     * @p grant items (> 0, decided by the caller — the scheduler's
     * steal round or the load front end): fused = coherent-memory
     * pops (cache traffic only), Popcorn = a StealRequest /
     * StealResponse RPC. Does not move any items itself.
     * @return items actually granted (0 = victim unreachable).
     */
    unsigned chargeStealPath(NodeId thief, NodeId victim,
                             unsigned grant);

    /** One steal round: every idle alive node tries one steal.
     *  Runs automatically between runInline's drain rounds. */
    void stealRound();

    StatGroup &stats() { return stats_; }

  private:
    System &sys_;
    SchedConfig cfg_;
    std::vector<std::deque<WorkItem>> queues_;
    /** Sum of queued item weights per node, kept incrementally. */
    std::vector<std::uint64_t> queuedWeight_;
    /** Round-robin cursor for affinity placement of new tasks. */
    NodeId rrNext_ = 0;
    StatGroup stats_;
    /** Run-queue depth distribution, sampled each steal round. */
    Histogram *depthHist_ = nullptr;
    std::uint64_t executed_ = 0;
    std::uint64_t crashHookToken_ = 0;

    std::uint64_t loadOf(NodeId n) const;
    NodeId leastLoaded() const;
    /** Items the victim may give up right now (keeps >= 1). */
    unsigned grantFor(NodeId victim, unsigned want) const;
    /** Move @p n items from the back of @p victim to @p thief,
     *  preserving their relative order. */
    void moveItems(NodeId victim, NodeId thief, unsigned n);
    /** Pop and execute up to @p block items on @p node. */
    void runBlockOn(NodeId node, std::size_t block);
    void execOne(NodeId node, WorkItem &item);
    /** Recovery hook: survivor adopts the dead node's queue. */
    void drainDeadNode(NodeId dead, NodeId survivor);
};

} // namespace stramash

#endif // STRAMASH_SCHED_SCHEDULER_HH

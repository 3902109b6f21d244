/**
 * @file
 * Deterministic, seed-driven fault injection (the `stramash/fault`
 * subsystem).
 *
 * A FaultPlan names the sites and rates at which the simulated
 * platform misbehaves: message drop / duplication / delivery delay /
 * payload corruption in the transport, cross-ISA IPI loss, denied
 * global-allocator block negotiations, and page-content corruption on
 * the DSM path. A FaultInjector executes the plan with one private
 * PCG32 stream per site, so adding faults at one site never perturbs
 * the draw sequence of another and every run is reproducible
 * bit-for-bit from (plan, seed).
 *
 * Determinism contract:
 *
 *  - Each site draws from its own Rng(seed, site) stream, in the
 *    order the simulation reaches the site. Same plan + same workload
 *    => same faults, every run.
 *  - `maxFaults` is a global budget. Once spent, every site reports
 *    "no fault" forever — which makes any bounded plan *transient* by
 *    construction: the system must converge to the fault-free end
 *    state after the budget is exhausted.
 *  - A site with rate 0 never draws, so enabling one site leaves the
 *    others' streams untouched.
 *  - Scheduled faults (crashes, link transitions) draw nothing: each
 *    fires once, when its deadline passes.
 *
 * When no plan is attached, the hot paths see a null FaultInjector
 * pointer: one predictable branch, nothing else.
 */

#ifndef STRAMASH_FAULT_FAULT_HH
#define STRAMASH_FAULT_FAULT_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "stramash/common/rng.hh"
#include "stramash/common/stats.hh"
#include "stramash/trace/trace.hh"

namespace stramash
{

/**
 * Health of one *directed* message link. A network partition is just
 * a set of Severed links; the coherent memory fabric of the fused
 * design is deliberately NOT subject to link state — that asymmetry
 * (messages cut, cache coherence intact) is the paper's arbitration
 * story.
 */
enum class LinkState : std::uint8_t {
    Up = 0,
    /** Messages and IPIs vanish silently; the sender cannot tell. */
    Severed,
    /** Each message survives a per-link Bernoulli draw
     *  (FaultPlan::linkLossRate, its own PCG32 stream). */
    Lossy,
    /** Messages park in flight and deliver only once the receiver's
     *  clock has advanced FaultPlan::linkDelayCycles past the send —
     *  a *sustained* delay, unlike the budget-bounded SiteMsgDelay. */
    Delayed,
};

/**
 * One scheduled fault: a crash-stop of node `from`, or the directed
 * link `from` -> `to` entering `state`. Unlike the transient sites it
 * fires exactly once, at a chosen simulated cycle, and is not subject
 * to maxFaults (a crash is permanent, a link stays as set).
 */
struct ScheduledFault
{
    enum class Kind : std::uint8_t { Crash, Link };
    Kind kind = Kind::Link;
    NodeId from = invalidNode;
    /** Link only. */
    NodeId to = invalidNode;
    /** Link only. */
    LinkState state = LinkState::Up;
    /** A crash fires when its node's own clock reaches this; a link
     *  transition when max(clock(from), clock(to)) does — the max so
     *  a heal scheduled against a fenced (frozen-clock) endpoint
     *  still fires off the survivor's clock. */
    Cycles atCycle = 0;
};

/** What to break, how often, and for how long. */
struct FaultPlan
{
    /** Master seed; every site stream derives from it. */
    std::uint64_t seed = 1;

    // ---- transport sites ----
    /** Probability a sent message vanishes before the wire. */
    double msgDropRate = 0.0;
    /** Probability a sent message is delivered twice. */
    double msgDupRate = 0.0;
    /** Probability a payload byte (or arg word) is flipped. */
    double msgCorruptRate = 0.0;
    /** Probability delivery is delayed by msgDelayCycles. */
    double msgDelayRate = 0.0;
    /** Receiver-side delivery delay for delayed messages. */
    static constexpr Cycles msgDelayCycles = 50000;

    // ---- platform sites ----
    /** Probability a cross-ISA IPI is lost in delivery. */
    double ipiDropRate = 0.0;
    /** Probability the donor denies a MemBlockRequest. */
    double memBlockDenyRate = 0.0;
    /** Extra corruption rate for page-carrying payloads
     *  (PageResponse / ProcessPage); max()ed with msgCorruptRate. */
    double pageCorruptRate = 0.0;

    /** Total faults the plan may inject before going quiet. A
     *  bounded budget makes the plan transient by construction. */
    std::uint64_t maxFaults = UINT64_MAX;

    // ---- link-fault sites ----
    /** Per-message drop probability while a link is Lossy (its own
     *  PCG32 stream, SiteLinkLoss). */
    double linkLossRate = 0.25;
    /** Park time for messages crossing a Delayed link; chosen above
     *  RpcPolicy::responseTimeoutCycles so a sustained delay looks
     *  exactly like death to the retry machinery. */
    static constexpr Cycles linkDelayCycles = 300000;

    // ---- scheduled faults ----
    /** Crashes and link transitions, built with the builders below. */
    std::vector<ScheduledFault> schedule;

    /** Crash-stop @p node once its clock reaches @p at. */
    FaultPlan &
    crashAt(NodeId node, Cycles at)
    {
        schedule.push_back(
            {ScheduledFault::Kind::Crash, node, invalidNode,
             LinkState::Up, at});
        return *this;
    }

    /** Sever both directions of a<->b at @p at (a partition edge). */
    FaultPlan &
    severLinkAt(NodeId a, NodeId b, Cycles at)
    {
        return linkBothWaysAt(a, b, LinkState::Severed, at);
    }

    /** Restore both directions of a<->b at @p at. */
    FaultPlan &
    healLinkAt(NodeId a, NodeId b, Cycles at)
    {
        return linkBothWaysAt(a, b, LinkState::Up, at);
    }

    /** True when the schedule holds an entry of @p kind. */
    bool
    schedules(ScheduledFault::Kind kind) const
    {
        for (const ScheduledFault &f : schedule) {
            if (f.kind == kind)
                return true;
        }
        return false;
    }

    /** Every site active at @p rate, with a fault budget — the chaos
     *  harness's standard transient plan. */
    static FaultPlan transientChaos(std::uint64_t seed,
                                    double rate = 0.05,
                                    std::uint64_t budget = 48);

  private:
    FaultPlan &
    linkBothWaysAt(NodeId a, NodeId b, LinkState s, Cycles at)
    {
        schedule.push_back({ScheduledFault::Kind::Link, a, b, s, at});
        schedule.push_back({ScheduledFault::Kind::Link, b, a, s, at});
        return *this;
    }
};

/**
 * Executes a FaultPlan. Owned by sim::Machine; every layer that hosts
 * an injection site asks it for decisions through `machine().
 * faultInjector()` (null when no plan is attached).
 *
 * Also owns the `faults.*` and `retries.*` stat groups: retries can
 * only happen while an injector is attached, so the recovery
 * machinery's counters live next to the faults that caused them.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultPlan &plan);

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /** Attach the machine tracer (events land in TraceCategory::Chaos). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    const FaultPlan &plan() const { return plan_; }

    // ---- decision points (one per named site) ----

    bool shouldDropMessage(NodeId from, NodeId to);
    bool shouldDuplicateMessage(NodeId from, NodeId to);
    /** @p pagePayload selects the DSM page-corruption site. */
    bool shouldCorruptPayload(NodeId from, NodeId to, bool pagePayload);
    /** 0 = deliver on time. */
    Cycles messageDelayCycles(NodeId from, NodeId to);
    bool shouldDropIpi(NodeId from, NodeId to);
    bool shouldDenyMemBlock(NodeId donor);
    /** Lossy-link site: drop this message crossing a Lossy link? */
    bool shouldDropOnLossyLink(NodeId from, NodeId to);

    /** True while scheduled faults remain unfired — lets the
     *  machine's per-access poll stay one predictable branch. */
    bool
    scheduleArmed() const
    {
        return scheduleFired_ < plan_.schedule.size();
    }

    /**
     * Scheduled-fault site, polled by the machine after every clock
     * advance of @p nid. @return the next unfired entry that is due,
     * or nullptr: first a crash of @p nid whose deadline @p clock(nid)
     * has reached, then a link transition whose deadline the later of
     * its endpoint clocks has reached, whichever node polls. Marks the
     * entry fired and counts it (exempt from maxFaults, but counted
     * in injected()); the caller (Machine) applies it.
     */
    const ScheduledFault *
    pollSchedule(NodeId nid, const std::function<Cycles(NodeId)> &clock);

    /**
     * Deterministically damage a message: flip one payload byte, or
     * one bit of @p arg0 when the payload is empty.
     */
    void corrupt(std::vector<std::uint8_t> &payload,
                 std::uint64_t &arg0);

    /** Faults injected so far (every site combined). */
    std::uint64_t injected() const { return injected_; }
    /** True once the budget is spent: the plan has gone quiet. */
    bool exhausted() const { return injected_ >= plan_.maxFaults; }

    StatGroup &faults() { return faults_; }
    StatGroup &retries() { return retries_; }
    /** Link/partition machinery counters (severs, heals, swallowed
     *  IPIs, arbitration outcomes, self-fences). */
    StatGroup &partition() { return partition_; }

  private:
    /** Site index doubles as the per-site Rng stream selector. */
    enum Site : unsigned {
        SiteMsgDrop = 0,
        SiteMsgDup,
        SiteMsgCorrupt,
        SiteMsgDelay,
        SiteIpi,
        SiteMemBlock,
        SitePageCorrupt,
        SiteCorruptBytes,
        /** Appended (not inserted) so the historical sites keep their
         *  stream selectors and seeded replays stay bit-identical. */
        SiteLinkLoss,
        siteCount,
    };

    /** Draw at @p site; on a hit, spend budget, count and trace. */
    bool fire(Site site, double rate, const char *name, NodeId node,
              std::uint64_t arg0, std::uint64_t arg1);

    FaultPlan plan_;
    std::vector<Rng> rngs_;
    std::uint64_t injected_ = 0;
    /** Per-entry fired flags for the schedule. */
    std::vector<bool> fired_;
    std::size_t scheduleFired_ = 0;
    StatGroup faults_;
    StatGroup retries_;
    StatGroup partition_;
    Tracer *tracer_ = nullptr;
};

} // namespace stramash

#endif // STRAMASH_FAULT_FAULT_HH

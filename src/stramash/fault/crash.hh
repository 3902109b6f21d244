/**
 * @file
 * Crash-stop kernel-node failure, failure detection, and recovery.
 *
 * A Stramash machine is one chip with several kernels on it; a kernel
 * node can crash-stop (firmware fault, watchdog reset, deliberate
 * power-gating) while the *memory system keeps running* — the fabric,
 * the LLCs of the surviving nodes, and DRAM stay coherent. That
 * asymmetry is the whole point of this subsystem: in the fused design
 * the survivor can read the dead kernel's structures (task records,
 * VMA trees, page tables, futex buckets) directly out of shared
 * memory and *re-home* everything; in the shared-nothing Popcorn
 * design the dead node's state is simply gone and the survivor can
 * only reap what lived there and re-own what it holds copies of.
 *
 * Three pieces:
 *
 *  - failure detection: a heartbeat protocol layered on the ordinary
 *    message transport. Each user-level operation gives the hosting
 *    kernel a chance to ping its peers (the simulator is synchronous,
 *    so the detector is driven from the operation stream rather than
 *    a timer tick). An unanswered ping charges the detection timeout
 *    and raises suspicion; enough consecutive misses and the observer
 *    moves to declare the peer dead. On a machine with three or more
 *    nodes the declaration first runs a *quorum poll*: every other
 *    surviving node probes the suspect once, and only a strict
 *    majority of dead votes (suspector included) lets the
 *    declaration proceed — a single observer with a bad link is
 *    outvoted and the suspect survives. With only two nodes there is
 *    nobody to ask, so the poll degenerates to the survivor's word
 *    being final; either way declaration *fences* the peer (STONITH):
 *    even a false suspicion is made true by killing the node before
 *    its state is redistributed.
 *
 *  - recovery: purge the dead node's message queues, sweep its futex
 *    waiters (robust-futex semantics: every surviving waiter woken
 *    exactly once, every dead waiter reaped), re-home or reap its
 *    tasks, return its global-allocator blocks to the pool, and
 *    re-own the DSM pages it owned.
 *
 *  - rejoin: the existing memory hot-plug flow in reverse. The node
 *    reboots with its firmware-map memory, a fresh kernel state, and
 *    a clock ahead of every survivor's.
 *
 *  - partition arbitration (armed only when the fault plan schedules
 *    link events — see Machine::partitionArmed): a severed link makes
 *    both sides suspect each other, and naive STONITH would let both
 *    declare and "kill" a healthy peer. The fused design arbitrates
 *    through the one thing a partition cannot cut — coherent memory:
 *    a charged CAS on a shared *fence word* decides, with zero
 *    messages, which side's declaration stands; the loser self-fences
 *    into a frozen degraded mode (sheds new work, preserves state).
 *    The shared-nothing Popcorn design cannot do that, so it falls
 *    back to a reachable-majority lease: a suspector that can reach
 *    at most half of the live nodes self-fences instead of declaring
 *    (ties go to the side holding the lowest live node id — the N=2
 *    lease authority). Healing a link runs reconciliation: fence
 *    epochs decide whose declarations stand, self-fenced nodes
 *    resume in place, and partition-fenced dead nodes auto-rejoin
 *    through the hot-plug flow.
 *
 * When no crash is planned and the detector is disabled the System
 * never constructs a CrashManager, so the hot paths are untouched —
 * zero overhead, bit-identical behaviour. Likewise, with no link
 * schedule the arbitration layer never runs and the historical
 * quorum/STONITH paths are bit-identical.
 */

#ifndef STRAMASH_FAULT_CRASH_HH
#define STRAMASH_FAULT_CRASH_HH

#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "stramash/dsm/dsm_engine.hh"
#include "stramash/fused/global_alloc.hh"
#include "stramash/fused/stramash.hh"
#include "stramash/kernel/kernel.hh"
#include "stramash/kernel/policy.hh"

namespace stramash
{

/** Failure-detector tuning. */
struct CrashConfig
{
    /**
     * Construct the detector even without a planned crash (manual
     * kills via killNow / System::killNode still recover). When
     * false, a CrashManager is only built if the fault plan
     * schedules a crash.
     */
    bool enabled = false;
    /** Minimum cycles between heartbeat pings to one peer. */
    Cycles pingIntervalCycles = 250'000;
    /** Cycles the observer waits for an ack before counting a miss. */
    static constexpr Cycles ackTimeoutCycles = 60'000;
    /** Consecutive misses before the peer is declared dead. */
    static constexpr unsigned suspicionThreshold = 3;
    /** Boot time modelled for a rejoining node. */
    static constexpr Cycles rebootCycles = 2'000'000;
};

/**
 * The crash-stop failure detector and recovery coordinator.
 *
 * Owned by the System when (and only when) a crash is planned or the
 * detector is explicitly enabled. All recovery work is charged to
 * the surviving node's clock; the dead node's clock is frozen at the
 * instant of death.
 */
class CrashManager
{
  public:
    CrashManager(Machine &machine, MessageLayer &msg,
                 KernelLookup kernels, std::size_t nodeCount,
                 OsDesign design, MigrationPolicy &migration,
                 CrashConfig cfg = {});

    /** Optional subsystem hooks (design-dependent). */
    void setDsm(DsmEngine *dsm) { dsm_ = dsm; }
    void setGma(GlobalMemoryAllocator *gma) { gma_ = gma; }
    void setStramashShared(StramashShared *s) { shared_ = s; }

    /** Register the heartbeat request/ack handlers on a kernel. */
    void installHandlers(KernelInstance &k);

    /**
     * The per-operation guard, called before every user-level
     * operation on @p pid. Runs the heartbeat detector from the
     * task's kernel; if that kernel itself has crashed, forces
     * detection from a survivor and recovers before returning, so
     * the caller sees the task already re-homed (fused) or reaped
     * (Popcorn).
     */
    void guardTask(Pid pid);

    /** True once @p node has been declared dead (and not rejoined). */
    bool
    isDeclaredDead(NodeId node) const
    {
        return dead_[node];
    }

    /**
     * True if @p pid was reaped by crash recovery; the exit status
     * (128 + SIGKILL) is written through @p status when given.
     */
    bool taskReaped(Pid pid, int *status = nullptr) const;

    /**
     * Kill a node immediately (test / chaos API). Detection and
     * recovery still run through the normal heartbeat path on the
     * next guarded operation.
     */
    void killNow(NodeId node);

    /**
     * Declare @p peer dead as seen from @p observer: fence it
     * (STONITH), then run full recovery. Idempotent. Bypasses the
     * quorum poll — callers with their own certainty only.
     */
    void declareDead(NodeId peer, NodeId observer);

    /**
     * Chaos/test API: make @p observer fully suspect @p peer right
     * now, as a broken observer-side link would, and run the normal
     * declaration path — including the quorum poll on N>=3 machines,
     * where a healthy peer gets probed by the other survivors and
     * the false suspicion is outvoted (suspicions_outvoted).
     */
    void forceSuspicion(NodeId observer, NodeId peer);

    /**
     * Bring a dead node back through the hot-plug flow: revive its
     * clock past every survivor's (plus the modelled reboot time),
     * reset its kernel to boot state, and clear detector state so
     * heartbeats to it resume.
     */
    void rejoin(NodeId node);

    /**
     * True while @p node sits in the partition-fenced degraded mode:
     * alive, state intact, answering heartbeats, but shedding new
     * work (Errc::Degraded) until its links heal.
     */
    bool
    isSelfFenced(NodeId node) const
    {
        return selfFenced_[node];
    }

    /** Current fence-word epoch (generation of declarations). */
    std::uint64_t fenceEpoch() const { return fenceWord_.epoch; }

    /** Detector introspection (test API). */
    unsigned
    suspicionOf(NodeId observer, NodeId peer) const
    {
        return det_[observer][peer].suspicion;
    }

    /** Detector override (chaos/test API): plant raw suspicion
     *  without running the declaration path. */
    void
    setSuspicion(NodeId observer, NodeId peer, unsigned n)
    {
        det_[observer][peer].suspicion = n;
    }

    /**
     * Link-state change notification, wired by the System to
     * Machine::setLinkEventHook. A pair whose both directions come
     * back Up runs the heal-time reconcile flow (un-fence /
     * auto-rejoin / stale-suspicion clearing).
     */
    void onLinkChange(NodeId from, NodeId to, LinkState s);

    StatGroup &recovery() { return recovery_; }

    /**
     * Subscribe to the end of recover(): after tasks, futexes, DSM
     * pages and allocator blocks are settled, each hook runs with
     * (dead, survivor) so layers above the System — the scheduler's
     * per-node run queues — can drain state homed on the dead node
     * through the same recovery path. Returns a token for
     * removeRecoveryHook(); the subscriber must remove itself before
     * it is destroyed.
     */
    using RecoveryHook = std::function<void(NodeId dead,
                                            NodeId survivor)>;
    std::uint64_t addRecoveryHook(RecoveryHook fn);
    void removeRecoveryHook(std::uint64_t token);

  private:
    /** Detector state one observer keeps about one pinged peer. */
    struct PeerState
    {
        Cycles nextPingAt = 0;
        std::uint64_t pingSeq = 0;
        std::uint64_t lastAckSeq = 0;
        unsigned suspicion = 0;
    };

    Machine &machine_;
    MessageLayer &msg_;
    KernelLookup kernels_;
    std::size_t nodeCount_;
    OsDesign design_;
    MigrationPolicy &migration_;
    CrashConfig cfg_;
    StatGroup recovery_;
    DsmEngine *dsm_ = nullptr;
    GlobalMemoryAllocator *gma_ = nullptr;
    StramashShared *shared_ = nullptr;
    /** det_[observer][peer]: the full observer x peer matrix. On the
     *  paper pair each peer has exactly one possible observer, so
     *  this collapses to the historical per-peer vector. */
    std::vector<std::vector<PeerState>> det_;
    std::vector<bool> dead_;
    /** pid -> exit status for tasks reaped by recovery. */
    std::map<Pid, int> exitStatus_;
    /** (token, fn) recovery subscribers, in registration order. */
    std::vector<std::pair<std::uint64_t, RecoveryHook>> recoveryHooks_;
    std::uint64_t nextHookToken_ = 1;

    /**
     * Host mirror of the fence word. In the fused design this models
     * one cacheline of coherent memory (kernel 0's data region) that
     * every declaration CASes — the partition-proof arbiter. In the
     * Popcorn design there is no such memory, so the same record
     * stands in for the lease generation number survivors would
     * carry in their rejoin handshakes. Either way `epoch` counts
     * declarations made while partition-armed, and heal-time
     * reconciliation compares it against a fenced node's snapshot to
     * decide whose view of the cluster stands.
     */
    struct FenceWord
    {
        std::uint64_t epoch = 0;
        NodeId victim = invalidNode;
        NodeId fencedBy = invalidNode;
    };
    FenceWord fenceWord_;
    /** Nodes frozen in the self-fenced degraded mode. */
    std::vector<bool> selfFenced_;
    /** Dead nodes fenced *by the partition* (link down or already
     *  self-fenced at declaration): healing their links auto-rejoins
     *  them, unlike genuinely crashed nodes which need an explicit
     *  rejoin. */
    std::vector<bool> fencedByPartition_;
    /** fenceWord_.epoch at the instant each node self-fenced. */
    std::vector<std::uint64_t> selfFenceEpoch_;

    NodeId anyLiveNode() const;

    /** Run every due ping from @p observer. */
    void pollFrom(NodeId observer);

    /**
     * One ping exchange from @p observer to @p peer. @p forced
     * ignores the ping schedule (used when a task's own kernel is
     * found dead and detection must converge now).
     * @return true if the peer answered.
     */
    bool pingRound(NodeId observer, NodeId peer, bool forced);

    /**
     * The bare wire exchange of one heartbeat: send, give the peer a
     * chance to answer, charge the ack timeout on a miss. No
     * suspicion bookkeeping — pingRound() and the quorum poll both
     * sit on top of this.
     * @return true if the peer answered.
     */
    bool heartbeatExchange(NodeId observer, NodeId peer);

    /**
     * A suspicion crossed the threshold: poll every other surviving
     * node @p suspector reaches for a probe of @p peer, in ascending
     * order, and declare it dead only on a strict majority of dead
     * votes (@p suspector included). On the two-node machine there
     * are no other voters and the suspector's word stands — the
     * historical STONITH path, bit-identical. Partition-armed
     * machines route through the arbitration layer first (fused CAS /
     * Popcorn reachable-majority lease).
     */
    void tryDeclareDead(NodeId peer, NodeId suspector);

    /** True when @p obs is another live, undeclared node and neither
     *  direction of its link with @p from is severed. */
    bool reaches(NodeId from, NodeId obs) const;

    /** True when the fault plan schedules link events (or a chaos
     *  severLink ran): the split-brain arbitration layer is live. */
    bool partitionMode() const { return machine_.partitionArmed(); }

    /**
     * Fused split-brain arbitration: a charged CAS (coherent load +
     * store by @p suspector) on the shared fence word. Zero messages
     * — the partition cannot cut coherent memory. @return true if
     * @p suspector won and may declare @p peer dead; false if the
     * word already names @p suspector as the victim.
     */
    bool fusedArbitrate(NodeId peer, NodeId suspector);

    /**
     * Freeze @p node in the degraded mode: detector stands down, new
     * work is shed, state is preserved. Heartbeats are still
     * answered, so a reconnected majority sees it alive.
     */
    void selfFence(NodeId node, NodeId peer);

    /** Heal-time reconciliation for a fully-healed a<->b pair. */
    void healPair(NodeId a, NodeId b);

    /** Full recovery, run once per death from declareDead(). */
    void recover(NodeId dead, NodeId survivor);

    void sweepFutexes(NodeId dead, NodeId survivor);
    void recoverTasksFused(NodeId dead, NodeId survivor);
    void recoverTasksPopcorn(NodeId dead, NodeId survivor);

    /**
     * Fused re-homing of one task touched by the crash: rebuild or
     * extend the surviving record straight out of the dead kernel's
     * coherent memory (VMA tree, page table, register state), then
     * re-point the task's home.
     */
    void adoptTaskFused(Pid pid, NodeId dead, NodeId survivor);

    /**
     * Copy every surviving mapping that still points into the dead
     * node's memory onto fresh local frames. Must run before the
     * global allocator reclaims the dead node's blocks.
     */
    void sweepDeadFrames(NodeId dead, NodeId survivor);

    /** Popcorn reap of a task whose hosting kernel died. */
    void reapTask(Pid pid, NodeId dead);
};

} // namespace stramash

#endif // STRAMASH_FAULT_CRASH_HH

#include "stramash/fault/crash.hh"

#include <algorithm>

#include "stramash/isa/page_table.hh"

namespace stramash
{

namespace
{

/** Exit status recorded for tasks reaped by crash recovery. */
constexpr int reapExitStatus = 128 + 9; // 128 + SIGKILL

/** Instructions of heartbeat service work on the pinged node. */
constexpr ICount heartbeatServeInst = 200;

/** Popcorn-side cost of one robust-futex list repair step. */
constexpr Cycles robustSweepCycles = 4'000;

/** Cost of re-pointing a reaped/re-homed task's origin record. */
constexpr Cycles rehomeBookkeepingCycles = 2'000;

/** Key of the shared fence word in kernel 0's data region. The CPU
 *  that owns the region may die or fence; the cacheline does not. */
constexpr std::uint64_t fenceWordKey = 0xfe2ce0'00000000ULL;

} // namespace

CrashManager::CrashManager(Machine &machine, MessageLayer &msg,
                           KernelLookup kernels,
                           std::size_t nodeCount, OsDesign design,
                           MigrationPolicy &migration, CrashConfig cfg)
    : machine_(machine),
      msg_(msg),
      kernels_(std::move(kernels)),
      nodeCount_(nodeCount),
      design_(design),
      migration_(migration),
      cfg_(cfg),
      recovery_("recovery"),
      det_(nodeCount, std::vector<PeerState>(nodeCount)),
      dead_(nodeCount, false),
      selfFenced_(nodeCount, false),
      fencedByPartition_(nodeCount, false),
      selfFenceEpoch_(nodeCount, 0)
{
    panic_if(nodeCount_ < 2, "crash recovery needs a survivor");
}

void
CrashManager::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(
        MsgType::Heartbeat, [this, &k](const Message &m) {
            // Alive-check service: echo the sequence number. The ack
            // is fire-and-forget (rpcId 0), deliberately *not* a
            // response type — see MsgType::HeartbeatAck.
            machine_.retire(k.nodeId(), heartbeatServeInst);
            Message ack;
            ack.type = MsgType::HeartbeatAck;
            ack.from = k.nodeId();
            ack.to = m.from;
            ack.arg0 = m.arg0;
            msg_.send(ack);
        });
    k.registerMsgHandler(MsgType::HeartbeatAck,
                         [this](const Message &m) {
                             // m.to is the observer whose ping this
                             // answers, m.from the pinged peer.
                             PeerState &ps = det_[m.to][m.from];
                             ps.lastAckSeq =
                                 std::max(ps.lastAckSeq, m.arg0);
                         });
}

bool
CrashManager::taskReaped(Pid pid, int *status) const
{
    auto it = exitStatus_.find(pid);
    if (it == exitStatus_.end())
        return false;
    if (status)
        *status = it->second;
    return true;
}

void
CrashManager::killNow(NodeId node)
{
    recovery_.counter("manual_kills") += 1;
    machine_.killNode(node);
}

NodeId
CrashManager::anyLiveNode() const
{
    // Prefer an unfenced survivor: a self-fenced node's detector
    // stands down, so forced convergence would spin on it. It is
    // still the fallback of last resort — declaring an actually-dead
    // peer is allowed even from inside the fence.
    NodeId fenced = invalidNode;
    for (NodeId n = 0; n < nodeCount_; ++n) {
        if (!machine_.nodeAlive(n))
            continue;
        if (!selfFenced_[n])
            return n;
        if (fenced == invalidNode)
            fenced = n;
    }
    if (fenced != invalidNode)
        return fenced;
    panic("crash recovery: every node is dead");
}

void
CrashManager::guardTask(Pid pid)
{
    if (exitStatus_.count(pid))
        return;
    NodeId cur = migration_.currentNode(pid);
    if (machine_.nodeAlive(cur)) {
        // A self-fenced kernel's detector stands down: it has no
        // standing to suspect anyone until its links heal.
        if (!selfFenced_[cur])
            pollFrom(cur);
        return;
    }
    // The kernel hosting this task crashed out from under it. Force
    // the survivor's detector to convergence — the declaration path
    // runs recovery, after which the task is either re-homed (fused)
    // or reaped (Popcorn) and the caller's operation can proceed.
    NodeId obs = anyLiveNode();
    while (!dead_[cur])
        pingRound(obs, cur, true);
}

void
CrashManager::pollFrom(NodeId observer)
{
    for (NodeId peer = 0; peer < nodeCount_; ++peer) {
        if (peer == observer || dead_[peer])
            continue;
        pingRound(observer, peer, false);
    }
}

bool
CrashManager::heartbeatExchange(NodeId observer, NodeId peer)
{
    PeerState &ps = det_[observer][peer];
    const std::uint64_t seq = ++ps.pingSeq;
    Message ping;
    ping.type = MsgType::Heartbeat;
    ping.from = observer;
    ping.to = peer;
    ping.arg0 = seq;
    msg_.send(ping);
    msg_.dispatchPending(peer);     // the peer answers, if it can
    msg_.dispatchPending(observer); // drain the ack

    if (ps.lastAckSeq < seq) {
        // Miss so far: charge the detection timeout, then look again
        // — under a delay-injecting plan a slow ack can land during
        // the wait.
        machine_.stall(observer, CrashConfig::ackTimeoutCycles);
        msg_.dispatchPending(observer);
    }
    return ps.lastAckSeq >= seq;
}

bool
CrashManager::pingRound(NodeId observer, NodeId peer, bool forced)
{
    PeerState &ps = det_[observer][peer];
    Cycles now = machine_.node(observer).cycles();
    if (!forced && now < ps.nextPingAt)
        return true;
    ps.nextPingAt = now + cfg_.pingIntervalCycles;

    if (heartbeatExchange(observer, peer)) {
        ps.suspicion = 0;
        return true;
    }
    ++ps.suspicion;
    recovery_.counter("heartbeat_misses") += 1;
    machine_.tracer().instant(TraceCategory::Chaos, "crash.suspect",
                              observer, 0, peer, ps.suspicion);
    if (ps.suspicion >= CrashConfig::suspicionThreshold)
        tryDeclareDead(peer, observer);
    return false;
}

bool
CrashManager::fusedArbitrate(NodeId peer, NodeId suspector)
{
    // One coherent load + store by the suspector — the CAS. The word
    // lives in kernel 0's data region, but ownership is irrelevant:
    // the fabric keeps the line coherent whoever's CPU is fenced.
    Addr w = kernels_(0).dataAddrFor(fenceWordKey);
    kernels_(suspector).remoteAccess(0, AccessType::Load, w, 8);
    recovery_.counter("fused_arbitrations") += 1;
    if (fenceWord_.victim == suspector) {
        // The other side of the split won the word first; our own
        // declaration is void and we are the one being fenced.
        machine_.tracer().instant(TraceCategory::Chaos,
                                  "crash.arbitration_lost", suspector,
                                  0, peer, fenceWord_.epoch);
        return false;
    }
    kernels_(suspector).remoteAccess(0, AccessType::Store, w, 8);
    return true;
}

void
CrashManager::selfFence(NodeId node, NodeId peer)
{
    if (selfFenced_[node] || dead_[node])
        return;
    selfFenced_[node] = true;
    selfFenceEpoch_[node] = fenceWord_.epoch;
    det_[node][peer].suspicion = 0;
    recovery_.counter("self_fences") += 1;
    machine_.tracer().instant(TraceCategory::Chaos, "crash.self_fence",
                              node, 0, peer, fenceWord_.epoch);
}

bool
CrashManager::reaches(NodeId from, NodeId obs) const
{
    return obs != from && !dead_[obs] && machine_.nodeAlive(obs) &&
           machine_.linkState(from, obs) != LinkState::Severed &&
           machine_.linkState(obs, from) != LinkState::Severed;
}

void
CrashManager::tryDeclareDead(NodeId peer, NodeId suspector)
{
    if (dead_[peer])
        return;
    if (partitionMode()) {
        if (!machine_.nodeAlive(peer)) {
            // The peer is machine-dead (scheduled crash, chaos kill):
            // declaring it is convergence of fact, not split-brain,
            // so no arbitration — and even a self-fenced observer may
            // do it.
            declareDead(peer, suspector);
            return;
        }
        if (selfFenced_[suspector])
            return;
        if (design_ == OsDesign::FusedKernel) {
            // Arbitrate through coherent memory: zero messages.
            if (fusedArbitrate(peer, suspector))
                declareDead(peer, suspector);
            else
                selfFence(suspector, peer);
            return;
        }
        // Popcorn reachable-majority lease. `live` is every node not
        // yet declared dead — including the suspected peer, whose
        // silence is exactly what is in dispute. `reachable` is the
        // suspector's side of the split: itself plus every other live
        // node whose links are not severed (the peer counts too — a
        // suspector that can still reach its peer is not partitioned
        // from it, so the suspicion must stand or fall on the quorum,
        // not on side arithmetic).
        unsigned live = 0;
        NodeId lowestLive = invalidNode;
        for (NodeId n = 0; n < nodeCount_; ++n) {
            if (dead_[n] || !machine_.nodeAlive(n))
                continue;
            ++live;
            if (lowestLive == invalidNode)
                lowestLive = n;
        }
        unsigned reachable = 1;
        bool lowestOnOurSide = suspector == lowestLive;
        for (NodeId obs = 0; obs < nodeCount_; ++obs) {
            if (reaches(suspector, obs)) {
                ++reachable;
                if (obs == lowestLive)
                    lowestOnOurSide = true;
            }
        }
        if (reachable * 2 < live ||
            (reachable * 2 == live && !lowestOnOurSide)) {
            // Minority side (ties go to the side holding the lowest
            // live id — the N=2 lease authority): no standing to
            // declare anyone. Freeze instead of split-brain.
            selfFence(suspector, peer);
            return;
        }
    }
    // Quorum poll. The suspector already voted dead; each other
    // surviving observer it can reach probes the suspect once on its
    // own channel — votes cannot cross a partition, and with no link
    // fault configured every link is up. On the two-node machine the
    // loop finds no voters and the suspector's word is final
    // (STONITH fallback, or the expired lease of the authority side).
    unsigned voters = 1;
    unsigned deadVotes = 1;
    for (NodeId obs = 0; obs < nodeCount_; ++obs) {
        if (obs == peer || !reaches(suspector, obs))
            continue;
        ++voters;
        recovery_.counter("quorum_probes") += 1;
        if (!heartbeatExchange(obs, peer))
            ++deadVotes;
    }
    if (deadVotes * 2 > voters) {
        declareDead(peer, suspector);
        return;
    }
    // Outvoted: the suspect answered a majority of the probes, so the
    // suspector's link (not the peer) is the likely fault. Reset its
    // count and keep the peer alive.
    det_[suspector][peer].suspicion = 0;
    recovery_.counter("suspicions_outvoted") += 1;
    machine_.tracer().instant(TraceCategory::Chaos, "crash.outvoted",
                              suspector, 0, peer, deadVotes);
}

void
CrashManager::forceSuspicion(NodeId observer, NodeId peer)
{
    panic_if(observer == peer, "a node cannot suspect itself");
    det_[observer][peer].suspicion = CrashConfig::suspicionThreshold;
    recovery_.counter("forced_suspicions") += 1;
    machine_.tracer().instant(TraceCategory::Chaos,
                              "crash.force_suspect", observer, 0, peer,
                              CrashConfig::suspicionThreshold);
    tryDeclareDead(peer, observer);
}

void
CrashManager::declareDead(NodeId peer, NodeId observer)
{
    if (dead_[peer])
        return;
    // Fence first (STONITH): with two nodes there is no quorum, so a
    // false suspicion must be made true — the peer is killed before
    // its state is redistributed, never after.
    machine_.killNode(peer);
    dead_[peer] = true;
    for (NodeId obs = 0; obs < nodeCount_; ++obs)
        det_[obs][peer].suspicion = 0;
    if (partitionMode()) {
        // Every partition-armed declaration advances the fence epoch
        // — the generation number heal-time reconciliation compares
        // against a fenced node's snapshot. A peer fenced *because of
        // the partition* (its link was down, or it had already frozen
        // itself) auto-rejoins when the pair heals; a genuinely
        // crashed peer does not.
        ++fenceWord_.epoch;
        fenceWord_.victim = peer;
        fenceWord_.fencedBy = observer;
        bool linkDown =
            machine_.linkState(observer, peer) != LinkState::Up ||
            machine_.linkState(peer, observer) != LinkState::Up;
        if (linkDown || selfFenced_[peer])
            fencedByPartition_[peer] = true;
        selfFenced_[peer] = false;
    }
    recovery_.counter("nodes_declared_dead") += 1;
    machine_.tracer().instant(TraceCategory::Chaos,
                              "crash.declare_dead", observer, 0, peer,
                              observer);
    recover(peer, observer);
}

void
CrashManager::recover(NodeId dead, NodeId survivor)
{
    STRAMASH_TRACE_SPAN(machine_.tracer(), TraceCategory::Chaos,
                        "crash.recover", survivor, 0, dead, survivor);

    // 1. Silence the dead node's messaging: drain its inbox (free —
    // its clock is frozen) so stale requests never get served.
    msg_.purgeQueues(dead);

    // 2. Robust-futex sweep: no surviving waiter may hang on a dead
    // node's queue, and no dead waiter may absorb a future wake.
    sweepFutexes(dead, survivor);

    // 3. Orphaned tasks.
    if (design_ == OsDesign::FusedKernel)
        recoverTasksFused(dead, survivor);
    else
        recoverTasksPopcorn(dead, survivor);

    // 4. Global-allocator reclamation — strictly after the frame
    // sweep above, which copies live data out of the dead node's
    // blocks.
    if (gma_) {
        recovery_.counter("gma_blocks_reclaimed") +=
            static_cast<std::int64_t>(gma_->reclaimDeadNode(dead));
    }

    // 5. The migration mailbox lives in one kernel's data region; if
    // that kernel died, drop it — the next migration re-allocates it
    // from a live kernel.
    if (shared_ && shared_->mailboxOwner == dead) {
        shared_->mailbox = 0;
        shared_->mailboxOwner = invalidNode;
        recovery_.counter("mailboxes_rehomed") += 1;
    }

    // 6. Higher-layer state homed on the dead node (the scheduler's
    // run queue) drains through the same recovery pass, charged to
    // the survivor like everything above.
    for (auto &hook : recoveryHooks_) {
        if (hook.second)
            hook.second(dead, survivor);
    }

    recovery_.counter("recoveries") += 1;
}

std::uint64_t
CrashManager::addRecoveryHook(RecoveryHook fn)
{
    panic_if(!fn, "addRecoveryHook(nullptr)");
    std::uint64_t token = nextHookToken_++;
    recoveryHooks_.emplace_back(token, std::move(fn));
    return token;
}

void
CrashManager::removeRecoveryHook(std::uint64_t token)
{
    for (auto it = recoveryHooks_.begin(); it != recoveryHooks_.end();
         ++it) {
        if (it->first == token) {
            recoveryHooks_.erase(it);
            return;
        }
    }
}

void
CrashManager::sweepFutexes(NodeId dead, NodeId survivor)
{
    std::int64_t reaped = 0;
    std::int64_t woken = 0;

    // Dead waiters parked in surviving kernels' tables are reaped so
    // they never absorb a wake meant for a live thread.
    for (NodeId n = 0; n < nodeCount_; ++n) {
        if (n == dead)
            continue;
        reaped += static_cast<std::int64_t>(
            kernels_(n).futexTable().removeWaitersOf(dead));
    }

    // The dead kernel's own table: reap its local waiters, wake each
    // surviving waiter exactly once.
    KernelInstance &ks = kernels_(survivor);
    KernelInstance &kd = kernels_(dead);
    for (auto &[uaddr, w] : kd.futexTable().drainAll()) {
        if (w.node == dead) {
            ++reaped;
            continue;
        }
        if (design_ == OsDesign::FusedKernel) {
            // The dead kernel's futex buckets are plain structures in
            // coherent shared memory — the CPU died, the memory did
            // not. The survivor unlinks the waiter with the same
            // charged bucket walk as the §6.5 fast path.
            Addr bucket = kd.dataAddrFor(uaddr ^ 0xf07e);
            ks.remoteAccess(dead, AccessType::Store, bucket, 8);
            ks.remoteAccess(dead, AccessType::Store, bucket + 64, 16);
            ks.remoteAccess(dead, AccessType::Store, bucket, 8);
        } else {
            // Popcorn: the origin's queues died with it; the
            // survivor re-creates local state, as a robust-futex
            // EOWNERDEAD pass would.
            machine_.stall(survivor, robustSweepCycles);
        }
        if (w.node != survivor)
            machine_.sendIpi(survivor, w.node);
        ++woken;
        machine_.tracer().instant(TraceCategory::Chaos,
                                  "crash.futex_wake", survivor, w.pid,
                                  uaddr, w.node);
    }
    recovery_.counter("futex_waiters_woken") += woken;
    recovery_.counter("futex_waiters_reaped") += reaped;
}

void
CrashManager::adoptTaskFused(Pid pid, NodeId dead, NodeId survivor)
{
    KernelInstance &kd = kernels_(dead);
    Task *tdead = kd.findTask(pid);
    NodeId cur = migration_.currentNode(pid);
    NodeId host = cur == dead ? survivor : cur;
    KernelInstance &kh = kernels_(host);

    Task *t = kh.findTask(pid);
    NodeId origin = t ? t->origin : tdead->origin;

    if (!t) {
        // The surviving kernel never hosted this task; rebuild the
        // record straight out of the dead kernel's memory.
        t = &kh.createTask(pid, origin == dead ? host : origin);
        t->heapBrk = tdead->heapBrk;
    }

    if (tdead) {
        // Every read of the dead kernel's structures is an ordinary
        // coherent load: the fused design's recovery superpower. The
        // VMA copy takes no lock — the tree's owner is dead, so nobody
        // else can be writing it. Pages present only in the dead table
        // are re-pointed into the survivor's table — same frames, no
        // copies; frames that live in the dead node's own memory are
        // dealt with by sweepDeadFrames() afterwards.
        copyVmasRemote(kh, kd, *tdead, *t);
        if (std::uint64_t adopted =
                adoptFramesRemote(kh, kd, *shared_, *tdead, *t)) {
            recovery_.counter("pages_adopted") +=
                static_cast<std::int64_t>(adopted);
        }

        // Frames the dead record borrowed from live kernels follow
        // the task; frames it owned die with the kernel (the frame
        // sweep re-copies any that are still mapped).
        for (auto [home, pa] : tdead->borrowedPages) {
            if (home != dead)
                t->borrowedPages.emplace_back(home, pa);
        }
        tdead->borrowedPages.clear();
        tdead->ownedPages.clear();
    }

    if (cur == dead) {
        // Register-state handover out of the dead kernel's memory —
        // the §6.4 mailbox path, minus the notification message
        // (there is nobody left to notify).
        panic_if(!tdead, "task ", pid, " ran on dead node ", dead,
                 " with no record");
        std::size_t wire = migrationStateWireSize();
        for (std::size_t off = 0; off < wire; off += 8) {
            kh.remoteAccess(dead, AccessType::Load,
                            kd.dataAddrFor((Addr{pid} << 16) ^ off),
                            8);
        }
        t->state = tdead->state;
        machine_.stall(host, StramashMigrationPolicy::transformCycles);
        migration_.setCurrentNode(pid, host);
        recovery_.counter("tasks_rehomed") += 1;
        machine_.tracer().instant(TraceCategory::Chaos,
                                  "crash.rehome", host, pid, dead,
                                  host);
    }

    if (origin == dead) {
        t->origin = host;
        if (shared_)
            shared_->foreignMapped.erase(pid);
        machine_.stall(host, rehomeBookkeepingCycles);
        recovery_.counter("origins_rehomed") += 1;
    }
}

void
CrashManager::recoverTasksFused(NodeId dead, NodeId survivor)
{
    KernelInstance &kd = kernels_(dead);

    std::vector<std::pair<Pid, NodeId>> tracked;
    migration_.forEachTask([&](Pid p, NodeId n) {
        tracked.emplace_back(p, n);
    });
    for (auto [pid, cur] : tracked) {
        bool involved = cur == dead || kd.hasTask(pid);
        if (!involved) {
            Task *t = kernels_(cur).findTask(pid);
            involved = t && t->origin == dead;
        }
        if (involved)
            adoptTaskFused(pid, dead, survivor);
    }

    sweepDeadFrames(dead, survivor);

    // Drop the dead kernel's task records last — the sweeps above
    // read through them. Their owned/borrowed page lists were
    // cleared during adoption, so destroyTask only erases records.
    std::vector<Pid> deadPids;
    kd.forEachTask([&](Task &t) { deadPids.push_back(t.pid); });
    for (Pid p : deadPids)
        kd.destroyTask(p);
}

void
CrashManager::sweepDeadFrames(NodeId dead, NodeId survivor)
{
    KernelInstance &kd = kernels_(dead);
    std::int64_t copied = 0;
    for (NodeId n = 0; n < nodeCount_; ++n) {
        if (n == dead)
            continue;
        KernelInstance &k = kernels_(n);
        k.forEachTask([&](Task &t) {
            // Borrowed-frame entries pointing at the dead allocator
            // must go before its blocks return to the pool.
            std::erase_if(t.borrowedPages, [&](const auto &bp) {
                return bp.first == dead;
            });
            t.as->vmas().forEach([&](const Vma &v) {
                for (Addr va = v.start; va < v.end; va += pageSize) {
                    auto w = t.as->pageTable().walk(va);
                    if (!w || !kd.palloc().manages(w->pte.frame))
                        continue;
                    Addr fresh = k.allocUserPage(false);
                    machine_.memory().copy(fresh, w->pte.frame,
                                           pageSize);
                    machine_.streamAccess(n, AccessType::Load,
                                          w->pte.frame, pageSize);
                    machine_.streamAccess(n, AccessType::Store, fresh,
                                          pageSize);
                    (void)t.as->unmapPage(va);
                    (void)t.as->mapPage(
                        va, fresh, vmaPageAttrs(v, v.prot.writable));
                    t.ownedPages.push_back(fresh);
                    ++copied;
                }
            });
        });
    }
    recovery_.counter("pages_copied_from_dead") += copied;
    if (copied) {
        machine_.tracer().instant(
            TraceCategory::Chaos, "crash.frame_sweep", survivor, 0,
            static_cast<std::uint64_t>(copied), dead);
    }
}

void
CrashManager::reapTask(Pid pid, NodeId dead)
{
    exitStatus_[pid] = reapExitStatus;

    // The System::exit teardown, but only live homes take frames
    // back.
    destroyTaskEverywhere(kernels_, nodeCount_, pid, [&](NodeId home) {
        return home != dead && machine_.nodeAlive(home);
    });

    if (dsm_)
        dsm_->forgetTask(pid);
    migration_.forgetTask(pid);
    recovery_.counter("tasks_reaped") += 1;
    machine_.tracer().instant(TraceCategory::Chaos, "crash.reap",
                              dead, pid, static_cast<std::uint64_t>(
                                             reapExitStatus),
                              dead);
}

void
CrashManager::recoverTasksPopcorn(NodeId dead, NodeId survivor)
{
    std::vector<std::pair<Pid, NodeId>> tracked;
    migration_.forEachTask([&](Pid p, NodeId n) {
        tracked.emplace_back(p, n);
    });
    for (auto [pid, cur] : tracked) {
        if (cur == dead) {
            // Shared-nothing: the thread context is unreachable.
            // Crash-stop semantics are honest here — reap with an
            // exit status rather than pretend to resurrect state the
            // survivor cannot read.
            reapTask(pid, dead);
            continue;
        }
        KernelInstance &kc = kernels_(cur);
        Task *t = kc.findTask(pid);
        if (t && t->origin == dead) {
            // The thread survived but its home kernel did not:
            // re-home the origin so future DSM and futex traffic
            // stays local to the survivor.
            t->origin = cur;
            machine_.stall(cur, rehomeBookkeepingCycles);
            recovery_.counter("origins_rehomed") += 1;
        }
        // Stale records on the dead kernel (if any) keep their page
        // lists but lend no frames in the shared-nothing design;
        // they are cleared hook-free when the node rejoins.
    }

    if (dsm_) {
        KernelInstance &kd = kernels_(dead);
        auto r = dsm_->recoverDeadNode(dead, survivor, [&](Addr f) {
            return kd.palloc().manages(f);
        });
        recovery_.counter("dsm_pages_reowned") +=
            static_cast<std::int64_t>(r.reowned);
        recovery_.counter("dsm_pages_lost") +=
            static_cast<std::int64_t>(r.lost);
    }
}

void
CrashManager::rejoin(NodeId node)
{
    panic_if(!dead_[node], "rejoin(", node,
             "): node was never declared dead");
    // The rebooted kernel's clock starts past every survivor's: the
    // cluster kept running while it booted.
    Cycles clock = 0;
    for (NodeId n = 0; n < nodeCount_; ++n) {
        if (machine_.nodeAlive(n))
            clock = std::max(clock, machine_.node(n).cycles());
    }
    clock += CrashConfig::rebootCycles;
    machine_.reviveNode(node, clock);
    kernels_(node).resetForRejoin();
    dead_[node] = false;
    fencedByPartition_[node] = false;
    selfFenced_[node] = false;
    // Every observer's view of the rebooted node starts over, and so
    // does the rebooted node's view of every peer: a kernel that
    // boots fresh has no memory of pre-crash suspicions, and leaving
    // its old rows in place let a node slandered just before its
    // death resume one miss short of re-declaring a healthy peer.
    for (NodeId obs = 0; obs < nodeCount_; ++obs) {
        det_[obs][node] = PeerState{};
        det_[node][obs] = PeerState{};
    }
    recovery_.counter("rejoins") += 1;
}

void
CrashManager::onLinkChange(NodeId from, NodeId to, LinkState s)
{
    if (s != LinkState::Up)
        return;
    // setLinkState updated the matrix before calling us, so `from ->
    // to` is already Up; reconcile only once both directions are.
    if (machine_.linkState(to, from) == LinkState::Up)
        healPair(from, to);
}

void
CrashManager::healPair(NodeId a, NodeId b)
{
    // Suspicion accumulated across the dead link is stale by
    // construction — the pair can talk again. Full reset: ping
    // sequence and last-ack counters restart together.
    det_[a][b] = PeerState{};
    det_[b][a] = PeerState{};
    for (NodeId n : {a, b}) {
        NodeId other = n == a ? b : a;
        if (selfFenced_[n]) {
            // Epoch comparison decides whose declarations stand: if
            // the cluster declared deaths while this node sat fenced,
            // the survivors' view wins and the fenced node adopts it
            // (it never declared anything itself, so adoption is
            // free).
            if (fenceWord_.epoch > selfFenceEpoch_[n])
                recovery_.counter("epoch_yields") += 1;
            selfFenced_[n] = false;
            for (NodeId obs = 0; obs < nodeCount_; ++obs) {
                det_[obs][n].suspicion = 0;
                det_[n][obs].suspicion = 0;
            }
            recovery_.counter("self_fence_rejoins") += 1;
            machine_.tracer().instant(TraceCategory::Chaos,
                                      "crash.unfence", n, 0, other,
                                      fenceWord_.epoch);
        } else if (dead_[n] && fencedByPartition_[n]) {
            // Fenced by the partition, not by a real crash: the heal
            // is the reboot signal. Hot-plug rejoin with a fresh
            // kernel — unacknowledged work from before the fence is
            // gone, which is exactly the no-acknowledged-loss
            // contract.
            recovery_.counter("heal_rejoins") += 1;
            machine_.tracer().instant(TraceCategory::Chaos,
                                      "crash.heal_rejoin", n, 0, other,
                                      fenceWord_.epoch);
            rejoin(n);
        }
    }
}

} // namespace stramash

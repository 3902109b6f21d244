#include "stramash/sched/scheduler.hh"

#include <algorithm>

namespace stramash
{

namespace
{

/** Pseudo-address key of a node's run-queue anchor line (head/tail
 *  words) inside its kernel's coherent data region. */
constexpr std::uint64_t kQueueAnchorKey = 0x5c4ed0000ULL;
/** Key base for the per-slot item records behind the anchor. */
constexpr std::uint64_t kItemKeyBase = 0x5c4ed8000ULL;

/** Thief-side bookkeeping after a fused steal (re-link, accounting). */
constexpr Cycles kStealBookkeepCycles = 120;
/** Victim-side protocol work serving a Popcorn steal request. */
constexpr Cycles kStealServeCycles = 600;

Addr
anchorAddr(KernelInstance &k, NodeId node)
{
    return k.dataAddrFor(kQueueAnchorKey ^ node);
}

Addr
itemAddr(KernelInstance &k, NodeId node, std::uint64_t slot)
{
    return k.dataAddrFor(kItemKeyBase ^
                         (static_cast<std::uint64_t>(node) << 16) ^
                         slot);
}

} // namespace

const char *
placementPolicyName(PlacementPolicy p)
{
    switch (p) {
      case PlacementPolicy::IsaAffinity: return "isa_affinity";
      case PlacementPolicy::LeastLoaded: return "least_loaded";
      case PlacementPolicy::CostModel: return "cost_model";
    }
    panic("unknown PlacementPolicy");
}

Scheduler::Scheduler(System &sys, SchedConfig cfg)
    : sys_(sys),
      cfg_(cfg),
      queues_(sys.nodeCount()),
      queuedWeight_(sys.nodeCount(), 0),
      stats_("sched")
{
    depthHist_ = &stats_.histogram(
        "runqueue_depth", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512});
    sys_.registerExternalStatGroup(&stats_);
    if (cfg_.registerWithSystem) {
        sys_.setPlacer(this);
        registered_ = true;
    }

    // Popcorn victims serve steal requests like any other RPC; the
    // fused design never sends one (steals ride coherent memory).
    if (sys_.config().osDesign == OsDesign::MultipleKernel) {
        MessageLayer *msg = &sys_.msg();
        for (NodeId n = 0; n < sys_.nodeCount(); ++n) {
            KernelInstance *k = &sys_.kernel(n);
            k->registerMsgHandler(
                MsgType::StealRequest,
                [k, msg](const Message &m) {
                    // The thief already decided the grant (it owns
                    // the queue bookkeeping — the scheduler's run
                    // queues or the front end's request queues); the
                    // victim pays the dequeue-side protocol work and
                    // ships the item descriptors back.
                    NodeId victim = k->nodeId();
                    unsigned grant = static_cast<unsigned>(m.arg0);
                    k->machine().stall(victim, kStealServeCycles);
                    Message resp;
                    resp.type = MsgType::StealResponse;
                    resp.from = victim;
                    resp.to = m.from;
                    resp.arg0 = grant;
                    resp.payload.assign(
                        static_cast<std::size_t>(grant) * 64, 0);
                    msg->send(resp);
                });
        }
    }

    if (CrashManager *cm = sys_.crashManager()) {
        crashHookToken_ = cm->addRecoveryHook(
            [this](NodeId dead, NodeId survivor) {
                drainDeadNode(dead, survivor);
            });
    }
}

Scheduler::~Scheduler()
{
    if (CrashManager *cm = sys_.crashManager();
        cm && crashHookToken_)
        cm->removeRecoveryHook(crashHookToken_);
    if (registered_ && sys_.placer() == this)
        sys_.setPlacer(nullptr);
    if (sys_.config().osDesign == OsDesign::MultipleKernel) {
        // Replace the steal handlers, which capture this.
        for (NodeId n = 0; n < sys_.nodeCount(); ++n)
            sys_.kernel(n).registerMsgHandler(MsgType::StealRequest,
                                              [](const Message &) {});
    }
    sys_.unregisterExternalStatGroup(&stats_);
}

bool
Scheduler::nodeUsable(NodeId n) const
{
    if (!sys_.machine().nodeAlive(n))
        return false;
    const CrashManager *cm =
        const_cast<System &>(sys_).crashManager();
    return !(cm && cm->isSelfFenced(n));
}

std::uint64_t
Scheduler::loadOf(NodeId n) const
{
    return sys_.machine().node(n).cycles() + queuedWeight_[n];
}

NodeId
Scheduler::leastLoaded() const
{
    NodeId best = invalidNode;
    std::uint64_t bestLoad = 0;
    for (NodeId n = 0; n < queues_.size(); ++n) {
        if (!nodeUsable(n))
            continue;
        std::uint64_t load = loadOf(n);
        if (best == invalidNode || load < bestLoad) {
            best = n;
            bestLoad = load;
        }
    }
    panic_if(best == invalidNode, "leastLoaded: no usable node");
    return best;
}

NodeId
Scheduler::place(const PlacementHints &hints)
{
    ++stats_.counter("placed_total");
    NodeId chosen;
    if (hints.pin) {
        // Pins always win: this is the compatibility path the
        // differential tests pass through, identical to the
        // scheduler-less System fallback.
        ++stats_.counter("placed_pin");
        chosen = sys_.firstAliveFrom(*hints.pin);
    } else if (cfg_.policy == PlacementPolicy::IsaAffinity) {
        ++stats_.counter("placed_affinity");
        std::size_t n = queues_.size();
        chosen = invalidNode;
        for (std::size_t step = 0; step < n; ++step) {
            NodeId cand =
                static_cast<NodeId>((rrNext_ + step) % n);
            if (!nodeUsable(cand))
                continue;
            if (hints.preferIsa &&
                sys_.kernel(cand).isa() != *hints.preferIsa)
                continue;
            chosen = cand;
            break;
        }
        if (chosen == invalidNode) // ISA preference unsatisfiable
            chosen = sys_.firstAliveFrom(rrNext_);
        rrNext_ = static_cast<NodeId>((chosen + 1) % n);
    } else {
        // LeastLoaded and CostModel place new tasks the same way: a
        // fresh task has no warm cache, so there is no refill cost
        // to weigh and load alone decides.
        ++stats_.counter("placed_least_loaded");
        chosen = leastLoaded();
    }
    sys_.tracer().instant(TraceCategory::Sched, "sched.place",
                          chosen, 0, hints.weightCycles,
                          hints.footprintBytes);
    return chosen;
}

NodeId
Scheduler::offloadTarget(NodeId from, const PlacementHints &hints)
{
    if (hints.pin) {
        ++stats_.counter("offload_pin");
        return sys_.firstAliveFrom(*hints.pin);
    }
    if (cfg_.policy == PlacementPolicy::IsaAffinity) {
        // Bit-identical to App::migrateToNext(): the cyclic next
        // alive node, falling back to the (refused) cyclic successor
        // when every peer is dead.
        ++stats_.counter("offload_affinity");
        std::size_t n = queues_.size();
        for (std::size_t step = 1; step < n; ++step) {
            NodeId cand = static_cast<NodeId>((from + step) % n);
            if (sys_.isNodeAlive(cand))
                return cand;
        }
        return static_cast<NodeId>((from + 1) % n);
    }

    NodeId cand = leastLoaded();
    if (cand == from) {
        ++stats_.counter("offload_stay");
        return from;
    }
    if (cfg_.policy == PlacementPolicy::CostModel) {
        std::uint64_t lFrom = loadOf(from);
        std::uint64_t lCand = loadOf(cand);
        std::uint64_t benefit = lFrom > lCand ? lFrom - lCand : 0;
        std::uint64_t lines =
            (hints.footprintBytes + cacheLineSize - 1) /
            cacheLineSize;
        std::uint64_t cost = cfg_.migrationChargeCycles +
                             lines * cfg_.refillCyclesPerLine;
        if (benefit <= cost) {
            ++stats_.counter("offload_cost_stay");
            return from;
        }
        ++stats_.counter("offload_cost_move");
    } else {
        ++stats_.counter("offload_move");
    }
    sys_.tracer().instant(TraceCategory::Sched, "sched.offload",
                          from, 0, cand, hints.footprintBytes);
    return cand;
}

NodeId
Scheduler::submit(WorkItem item)
{
    PlacementHints hints;
    hints.weightCycles = item.weight;
    hints.footprintBytes = item.footprintBytes;
    return submitTo(place(hints), std::move(item));
}

NodeId
Scheduler::submitTo(NodeId node, WorkItem item)
{
    NodeId n = sys_.firstAliveFrom(node);
    queuedWeight_[n] += item.weight;
    queues_[n].push_back(std::move(item));
    ++stats_.counter("items_submitted");
    return n;
}

std::size_t
Scheduler::queueDepth(NodeId node) const
{
    panic_if(node >= queues_.size(), "queueDepth: unknown node");
    return queues_[node].size();
}

std::size_t
Scheduler::totalQueued() const
{
    std::size_t total = 0;
    for (const auto &q : queues_)
        total += q.size();
    return total;
}

void
Scheduler::runBlockOn(NodeId node, std::size_t block)
{
    // A dead node's items stay queued until the recovery hook drains
    // them to a survivor (fused) or declares them lost (Popcorn).
    if (!nodeUsable(node))
        return;
    auto &q = queues_[node];
    std::size_t n = std::min(q.size(), block);
    for (std::size_t i = 0; i < n; ++i) {
        WorkItem item = std::move(q.front());
        q.pop_front();
        queuedWeight_[node] -=
            std::min(queuedWeight_[node], item.weight);
        execOne(node, item);
    }
}

void
Scheduler::execOne(NodeId node, WorkItem &item)
{
    // Popping the local run queue touches its coherent anchor line;
    // both designs pay this identically — only steals differ.
    Machine &m = sys_.machine();
    m.dataAccess(node, AccessType::Load,
                 anchorAddr(sys_.kernel(node), node), 64);
    sys_.tracer().instant(TraceCategory::Sched, "sched.exec", node,
                          0, item.tag, item.weight);
    if (item.fn)
        item.fn(node);
    ++executed_;
    ++stats_.counter("items_executed");
}

NodeId
Scheduler::chooseVictim(NodeId thief) const
{
    NodeId best = invalidNode;
    std::size_t bestDepth = 1; // need >= 2: the victim keeps one
    for (NodeId n = 0; n < queues_.size(); ++n) {
        if (n == thief || !nodeUsable(n))
            continue;
        if (queues_[n].size() > bestDepth) {
            best = n;
            bestDepth = queues_[n].size();
        }
    }
    return best;
}

unsigned
Scheduler::grantFor(NodeId victim, unsigned want) const
{
    std::size_t depth = queues_[victim].size();
    if (depth < 2)
        return 0;
    return static_cast<unsigned>(std::min<std::size_t>(
        {static_cast<std::size_t>(want),
         static_cast<std::size_t>(cfg_.stealBatch), depth - 1}));
}

unsigned
Scheduler::chargeStealPath(NodeId thief, NodeId victim,
                           unsigned grant)
{
    panic_if(grant == 0, "chargeStealPath: grant must be > 0");
    Machine &m = sys_.machine();
    if (sys_.config().osDesign == OsDesign::FusedKernel) {
        // Coherent-memory steal: read the victim's queue anchor,
        // claim the tail with a store, pull one line per item. The
        // cost is pure cache traffic — the snoop filter sees every
        // cross-node line move; the message layer sees nothing.
        KernelInstance &vk = sys_.kernel(victim);
        m.dataAccess(thief, AccessType::Load,
                     anchorAddr(vk, victim), 64);
        m.dataAccess(thief, AccessType::Store,
                     anchorAddr(vk, victim), 64);
        for (unsigned i = 0; i < grant; ++i)
            m.dataAccess(thief, AccessType::Load,
                         itemAddr(vk, victim, i), 64);
        m.stall(thief, kStealBookkeepCycles);
        return grant;
    }
    // Shared-nothing steal: a full RPC round-trip. The victim's
    // handler echoes the grant and ships the item descriptors in
    // the reply; the resilient tryRpc is the historical rpc()
    // bit-for-bit when no fault injector is attached.
    Message req;
    req.type = MsgType::StealRequest;
    req.from = thief;
    req.to = victim;
    req.arg0 = grant;
    std::optional<Message> resp =
        sys_.msg().tryRpc(req, MsgType::StealResponse);
    if (!resp) {
        ++stats_.counter("steals_unreachable");
        return 0;
    }
    return static_cast<unsigned>(resp->arg0);
}

void
Scheduler::moveItems(NodeId victim, NodeId thief, unsigned n)
{
    auto &vq = queues_[victim];
    auto &tq = queues_[thief];
    panic_if(n == 0 || n >= vq.size(),
             "moveItems: victim must keep at least one item");
    std::size_t start = vq.size() - n;
    for (std::size_t i = start; i < vq.size(); ++i) {
        std::uint64_t w = vq[i].weight;
        queuedWeight_[victim] -= std::min(queuedWeight_[victim], w);
        queuedWeight_[thief] += w;
        tq.push_back(std::move(vq[i]));
    }
    vq.resize(start);
}

void
Scheduler::stealRound()
{
    // Depth histogram: one sample per usable node per round.
    for (NodeId n = 0; n < queues_.size(); ++n) {
        if (nodeUsable(n))
            depthHist_->sample(queues_[n].size());
    }
    if (!cfg_.stealing)
        return;
    for (NodeId thief = 0; thief < queues_.size(); ++thief) {
        if (!nodeUsable(thief) || !queues_[thief].empty())
            continue;
        NodeId victim = chooseVictim(thief);
        if (victim == invalidNode)
            continue;
        unsigned want = grantFor(victim, cfg_.stealBatch);
        if (want == 0)
            continue;
        ++stats_.counter("steals_attempted");
        unsigned got = chargeStealPath(thief, victim, want);
        if (got == 0) {
            ++stats_.counter("steals_refused");
            continue;
        }
        moveItems(victim, thief, got);
        ++stats_.counter("steals_succeeded");
        stats_.counter("steal_items") += got;
        sys_.tracer().instant(TraceCategory::Sched, "sched.steal",
                              thief, 0, victim, got);
    }
}

Cycles
Scheduler::runInline()
{
    Cycles before = sys_.machine().maxRuntime();
    for (;;) {
        std::uint64_t ranBefore = executed_;
        for (NodeId n = 0; n < queues_.size(); ++n)
            runBlockOn(n, cfg_.runBlock);
        stealRound();
        // Only stranded (dead-node) items can remain once a full
        // round executes nothing.
        if (executed_ == ranBefore)
            break;
    }
    return sys_.machine().maxRuntime() - before;
}

void
Scheduler::drainDeadNode(NodeId dead, NodeId survivor)
{
    auto &dq = queues_[dead];
    queuedWeight_[dead] = 0;
    if (dq.empty())
        return;
    ++stats_.counter("dead_queue_drains");
    Machine &m = sys_.machine();
    if (sys_.config().osDesign == OsDesign::FusedKernel) {
        // The dead kernel's memory is still coherent: the survivor
        // walks the queue straight out of it and adopts every item,
        // charged like the task re-homing that just ran.
        KernelInstance &dk = sys_.kernel(dead);
        m.dataAccess(survivor, AccessType::Load,
                     anchorAddr(dk, dead), 64);
        std::uint64_t slot = 0;
        for (WorkItem &item : dq) {
            m.dataAccess(survivor, AccessType::Load,
                         itemAddr(dk, dead, slot++), 64);
            queuedWeight_[survivor] += item.weight;
            queues_[survivor].push_back(std::move(item));
        }
        stats_.counter("queue_items_drained") += slot;
        sys_.tracer().instant(TraceCategory::Sched, "sched.drain",
                              survivor, 0, dead, slot);
    } else {
        // Shared-nothing: the dead node's queue lived in its own
        // memory and is simply gone.
        stats_.counter("queue_items_lost") += dq.size();
        sys_.tracer().instant(TraceCategory::Sched,
                              "sched.queue_lost", survivor, 0, dead,
                              dq.size());
    }
    dq.clear();
}

} // namespace stramash

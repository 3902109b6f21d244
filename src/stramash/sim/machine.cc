#include "stramash/sim/machine.hh"

#include "stramash/common/units.hh"

namespace stramash
{

MachineConfig
MachineConfig::paperPair(MemoryModel model, Addr l3Size)
{
    MachineConfig cfg;
    cfg.memoryModel = model;
    cfg.l3Size = l3Size;
    cfg.nodes = {
        {0, IsaType::X86_64, CoreModel::XeonGold, 1},
        {1, IsaType::AArch64, CoreModel::ThunderX2, 1},
    };
    return cfg;
}

MachineConfig
MachineConfig::fromTopology(const TopologySpec &spec, Addr l3Size)
{
    spec.validate();
    MachineConfig cfg;
    cfg.memoryModel = spec.memoryModel;
    cfg.l3Size = l3Size;
    cfg.nodes.reserve(spec.nodeCount());
    for (const auto &n : spec.nodes)
        cfg.nodes.push_back({n.id, n.isa, n.core, n.numCores});
    cfg.topology = spec;
    return cfg;
}

namespace
{

PhysMap
buildPhysMap(const MachineConfig &cfg)
{
    return cfg.topology ? PhysMap::generate(*cfg.topology)
                        : PhysMap::paperDefault(cfg.memoryModel);
}

} // namespace

Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      map_(buildPhysMap(cfg)),
      tracer_(cfg.trace, cfg.nodes.size(),
              [this](NodeId n) { return node(n).cycles(); })
{
    fatal_if(cfg_.nodes.empty(), "machine needs at least one node");
    if (cfg_.topology) {
        fatal_if(cfg_.topology->memoryModel != cfg_.memoryModel,
                 "machine: memoryModel disagrees with the topology "
                 "spec (use MachineConfig::fromTopology)");
        fatal_if(cfg_.topology->nodeCount() != cfg_.nodes.size(),
                 "machine: node list disagrees with the topology spec "
                 "(use MachineConfig::fromTopology)");
        for (const auto &nc : cfg_.nodes) {
            const TopologyNode *tn = cfg_.topology->nodeById(nc.id);
            fatal_if(!tn || tn->isa != nc.isa || tn->core != nc.core,
                     "machine: node ", nc.id, " disagrees with the "
                     "topology spec (use MachineConfig::fromTopology)");
        }
    }
    // Per-node tables below (IPI counters, tracer tracks) index by
    // NodeId, so ids must be dense {0..n-1}.
    std::vector<bool> seen(cfg_.nodes.size(), false);
    for (const auto &nc : cfg_.nodes) {
        fatal_if(nc.id >= cfg_.nodes.size() || seen[nc.id],
                 "machine: node ids must be dense and unique (id ",
                 nc.id, " in a ", cfg_.nodes.size(), "-node machine)");
        seen[nc.id] = true;
    }

    bool sharedLlc = cfg_.memoryModel == MemoryModel::FullyShared &&
                     cfg_.sharedLlcWhenFullyShared;
    CacheGeometry sharedGeom{cfg_.l3Size, 16};
    domain_ = std::make_unique<CoherenceDomain>(
        map_, cfg_.snoopCosts, sharedLlc ? &sharedGeom : nullptr);
    domain_->setBroadcastMode(!cfg_.snoopFilterEnabled);

    for (const auto &nc : cfg_.nodes) {
        auto geom = HierarchyGeometry::paperDefault(cfg_.l3Size);
        const LatencyProfile &prof = latencyProfile(nc.core);
        if (prof.l3 == 0)
            geom.l3.sizeBytes = 0; // e.g. Cortex-A72: no L3
        domain_->addNode(nc.id, geom, prof);
        nodes_.push_back(std::make_unique<Node>(nc));
    }
    byId_.assign(nodes_.size(), nullptr);
    for (auto &n : nodes_)
        byId_[n->id()] = n.get();
    ipisReceived_.assign(nodes_.size(), 0);
    links_.assign(nodes_.size() * nodes_.size(),
                  static_cast<std::uint8_t>(LinkState::Up));
    if (tracer_.enabled())
        domain_->setTracer(&tracer_);
    if (cfg_.faultPlan) {
        injector_ = std::make_unique<FaultInjector>(*cfg_.faultPlan);
        injector_->setTracer(&tracer_);
        for (const LinkEvent &ev : cfg_.faultPlan->linkSchedule) {
            panic_if(ev.from >= nodes_.size() || ev.to >= nodes_.size(),
                     "link schedule names unknown node");
        }
        partitionArmed_ = cfg_.faultPlan->linkFaultsPlanned();
    }
}

Node &
Machine::node(NodeId id)
{
    panic_if(id >= byId_.size(), "unknown node ", id);
    return *byId_[id];
}

const Node &
Machine::node(NodeId id) const
{
    panic_if(id >= byId_.size(), "unknown node ", id);
    return *byId_[id];
}

Node &
Machine::nodeByIsa(IsaType isa)
{
    // N-node machines can run the same ISA on several nodes; an
    // ISA-keyed lookup is only well-defined when exactly one alive
    // node matches, so name the ambiguity instead of silently
    // returning whichever node was built first.
    Node *match = nullptr;
    for (auto &n : nodes_) {
        if (n->isa() != isa || !n->alive())
            continue;
        panic_if(match, "nodeByIsa(", isaName(isa),
                 "): ambiguous — nodes ", match->id(), " and ",
                 n->id(), " both run ", isaName(isa),
                 "; address nodes by id in N-node topologies");
        match = n.get();
    }
    panic_if(!match, "no alive node with ISA ", isaName(isa));
    return *match;
}

Cycles
Machine::dataAccess(NodeId nid, AccessType type, Addr pa, unsigned size)
{
    if (accessTrace_)
        accessTrace_(nid, type, pa, size);
    Node &n = node(nid);
    Cycles lat;
    if (cfg_.cachePluginEnabled) {
        lat = domain_->access(nid, type, pa, size).latency;
    } else {
        // Functional mode: flat per-access cost, as when the paper
        // disables the Cache plugin (§9.2.8).
        lat = n.profile().l1;
    }
    n.stall(lat);
    maybeFireCrash(nid);
    return lat;
}

Cycles
Machine::streamAccess(NodeId nid, AccessType type, Addr pa,
                      unsigned size, unsigned mlp)
{
    if (mlp == 0)
        mlp = cfg_.streamMlp;
    panic_if(mlp == 0, "streamAccess needs mlp >= 1");
    if (accessTrace_)
        accessTrace_(nid, type, pa, size);
    Node &n = node(nid);
    if (!cfg_.cachePluginEnabled || size == 0) {
        Cycles lat = n.profile().l1;
        n.stall(lat);
        maybeFireCrash(nid);
        return lat;
    }
    Cycles total = 0;
    Addr first = lineBase(pa);
    Addr last = lineBase(pa + size - 1);
    for (Addr line = first; line <= last; line += cacheLineSize) {
        AccessResult r = domain_->accessLine(nid, type, line);
        // Misses overlap; hits are already pipelined-cheap.
        if (r.level == HitLevel::Memory)
            total += (r.latency + mlp - 1) / mlp;
        else
            total += r.latency;
    }
    n.stall(total);
    maybeFireCrash(nid);
    return total;
}

void
Machine::retire(NodeId nid, ICount n)
{
    if (retireTrace_)
        retireTrace_(nid, n);
    node(nid).retire(n);
    maybeFireCrash(nid);
}

void
Machine::stall(NodeId nid, Cycles c)
{
    node(nid).stall(c);
    maybeFireCrash(nid);
}

Cycles
Machine::ipiCycles(NodeId nid) const
{
    const Node &n = node(nid);
    return usToCycles(cfg_.crossIsaIpiUs, n.profile().ghz);
}

Cycles
Machine::sendIpi(NodeId from, NodeId to)
{
    // A dead node neither raises nor takes interrupts.
    if (anyNodeDead() && (!nodeAlive(from) || !nodeAlive(to)))
        return 0;
    if (anyLinkImpaired() &&
        rawLinkState(from, to) == LinkState::Severed) {
        // The interrupt fabric rides the message links: on a severed
        // link the IPI is swallowed. Coherent *memory* stays up —
        // fused-design data written across a partition lands, only
        // the doorbell is lost. Counted so the asymmetry is visible.
        injector_->partition().counter("ipis_swallowed") += 1;
        tracer_.instant(TraceCategory::Chaos, "link.ipi_swallowed",
                        from, 0, from, to);
        return 0;
    }
    if (injector_ && injector_->shouldDropIpi(from, to))
        return 0;
    Node &dst = node(to);
    Cycles lat = ipiCycles(to);
    // The receiver pays the delivery latency; the span covers it.
    Cycles start = dst.cycles();
    dst.stall(lat);
    ++ipisReceived_[to];
    dst.stats().counter("ipis_received") += 1;
    tracer_.emit(TraceCategory::Ipi, "ipi.deliver", to, 0, start,
                 dst.cycles(), from, to);
    return lat;
}

void
Machine::fireScheduledIfDue(NodeId nid)
{
    if (injector_->crashArmed() &&
        injector_->shouldCrashNode(nid, node(nid).cycles()))
        killNode(nid);
    if (!injector_->linkEventsArmed())
        return;
    // One event per poll iteration: the hook a transition invokes
    // (heal/reconcile, rejoin) advances clocks itself, which can make
    // further schedule entries due — the injector's fired flags make
    // the re-entrant polls idempotent.
    while (const LinkEvent *ev = injector_->pollLinkEvent(
               [this](NodeId n) { return node(n).cycles(); })) {
        setLinkState(ev->from, ev->to, ev->state);
    }
}

void
Machine::setLinkState(NodeId from, NodeId to, LinkState s)
{
    panic_if(!injector_,
             "setLinkState without fault machinery: attach a "
             "FaultPlan (an empty one is enough)");
    panic_if(from >= byId_.size() || to >= byId_.size() || from == to,
             "setLinkState(", from, ", ", to, "): bad link");
    LinkState old = rawLinkState(from, to);
    partitionArmed_ = true;
    if (old == s)
        return;
    links_[from * byId_.size() + to] = static_cast<std::uint8_t>(s);
    if (old == LinkState::Up)
        ++impairedLinks_;
    else if (s == LinkState::Up)
        --impairedLinks_;
    StatGroup &part = injector_->partition();
    const char *name = "link.up";
    switch (s) {
      case LinkState::Up:
        part.counter("links_healed") += 1;
        break;
      case LinkState::Severed:
        part.counter("links_severed") += 1;
        name = "link.severed";
        break;
      case LinkState::Lossy:
        part.counter("links_lossy") += 1;
        name = "link.lossy";
        break;
      case LinkState::Delayed:
        part.counter("links_delayed") += 1;
        name = "link.delayed";
        break;
    }
    tracer_.instant(TraceCategory::Chaos, name, from, 0, from, to);
    if (linkHook_)
        linkHook_(from, to, s);
}

void
Machine::killNode(NodeId id)
{
    Node &n = node(id);
    if (!n.alive())
        return;
    n.setAlive(false);
    ++deadNodes_;
    n.stats().counter("crashes") += 1;
    tracer_.instant(TraceCategory::Chaos, "crash.node_dead", id, 0,
                    id, n.cycles());
}

void
Machine::reviveNode(NodeId id, Cycles clock)
{
    Node &n = node(id);
    panic_if(n.alive(), "reviveNode(", id, "): node is not dead");
    panic_if(deadNodes_ == 0, "reviveNode with no dead nodes");
    n.syncClock(clock);
    n.setAlive(true);
    --deadNodes_;
    n.stats().counter("revives") += 1;
    tracer_.instant(TraceCategory::Chaos, "crash.node_revive", id, 0,
                    id, clock);
}

std::uint64_t
Machine::ipisReceived(NodeId nid) const
{
    panic_if(nid >= ipisReceived_.size(), "unknown node");
    return ipisReceived_[nid];
}

Cycles
Machine::totalRuntime() const
{
    Cycles total = 0;
    for (const auto &n : nodes_)
        total += n->cycles();
    return total;
}

Cycles
Machine::maxRuntime() const
{
    Cycles best = 0;
    for (const auto &n : nodes_)
        best = std::max(best, n->cycles());
    return best;
}

void
Machine::resetTiming(bool flushCaches)
{
    for (auto &n : nodes_)
        n->resetTime();
    if (flushCaches)
        domain_->flushAll();
    std::fill(ipisReceived_.begin(), ipisReceived_.end(), 0);
}

} // namespace stramash

#include "stramash/sim/machine.hh"

#include "stramash/common/units.hh"

namespace stramash
{

MachineConfig
MachineConfig::paperPair(MemoryModel model, Addr l3Size)
{
    return fromTopology(TopologySpec::paperPair(model), l3Size);
}

MachineConfig
MachineConfig::fromTopology(const TopologySpec &spec, Addr l3Size)
{
    MachineConfig cfg;
    cfg.topology = spec;
    cfg.l3Size = l3Size;
    return cfg;
}

// PhysMap::generate validates the topology first: at least one node,
// ids dense {0..n-1}, which the per-node tables below index by.
Machine::Machine(const MachineConfig &cfg)
    : cfg_(cfg),
      map_(PhysMap::generate(cfg.topology)),
      tracer_(cfg.trace, cfg.topology.nodeCount(),
              [this](NodeId n) { return node(n).cycles(); })
{
    bool sharedLlc =
        cfg_.topology.memoryModel == MemoryModel::FullyShared;
    CacheGeometry sharedGeom{cfg_.l3Size, 16};
    domain_ = std::make_unique<CoherenceDomain>(
        map_, cfg_.snoopCosts, sharedLlc ? &sharedGeom : nullptr);

    for (const TopologyNode &tn : cfg_.topology.nodes) {
        auto geom = HierarchyGeometry::paperDefault(cfg_.l3Size);
        const LatencyProfile &prof = latencyProfile(tn.core);
        if (prof.l3 == 0)
            geom.l3.sizeBytes = 0; // e.g. Cortex-A72: no L3
        domain_->addNode(tn.id, geom, prof);
        nodes_.push_back(std::make_unique<Node>(tn));
    }
    byId_.assign(nodes_.size(), nullptr);
    for (auto &n : nodes_)
        byId_[n->id()] = n.get();
    ipisReceived_.assign(nodes_.size(), 0);
    ipiStats_.assign(nodes_.size(), nullptr);
    links_.assign(nodes_.size() * nodes_.size(),
                  static_cast<std::uint8_t>(LinkState::Up));
    if (tracer_.enabled())
        domain_->setTracer(&tracer_);
    if (cfg_.faultPlan) {
        injector_ = std::make_unique<FaultInjector>(*cfg_.faultPlan);
        injector_->setTracer(&tracer_);
        for (const ScheduledFault &f : cfg_.faultPlan->schedule) {
            panic_if(f.from >= nodes_.size() ||
                         (f.kind == ScheduledFault::Kind::Link &&
                          f.to >= nodes_.size()),
                     "fault schedule names unknown node");
        }
        partitionArmed_ =
            cfg_.faultPlan->schedules(ScheduledFault::Kind::Link);
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
                      unsigned size)
{
    const unsigned mlp = cfg_.streamMlp;
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
    Counter *&received = ipiStats_[to];
    if (!received)
        received = &dst.stats().counter("ipis_received");
    *received += 1;
    tracer_.emit(TraceCategory::Ipi, "ipi.deliver", to, 0, start,
                 dst.cycles(), from, to);
    return lat;
}

void
Machine::fireScheduledIfDue(NodeId nid)
{
    // One entry per poll iteration: the hook a link transition
    // invokes (heal/reconcile, rejoin) advances clocks itself, which
    // can make further entries due — the injector's fired flags make
    // the re-entrant polls idempotent.
    while (const ScheduledFault *f = injector_->pollSchedule(
               nid, [this](NodeId n) { return node(n).cycles(); })) {
        if (f->kind == ScheduledFault::Kind::Crash)
            killNode(f->from);
        else
            setLinkState(f->from, f->to, f->state);
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
Machine::resetTiming()
{
    for (auto &n : nodes_)
        n->resetTime();
    domain_->flushAll();
    std::fill(ipisReceived_.begin(), ipisReceived_.end(), 0);
}

} // namespace stramash

#include "stramash/core/system.hh"

#include <algorithm>

#include "stramash/trace/chrome_exporter.hh"
#include "stramash/trace/json_stats.hh"

namespace stramash
{

KernelLookup
System::lookup()
{
    return [this](NodeId n) -> KernelInstance & { return kernel(n); };
}

System::System(const SystemConfig &cfg) : cfg_(cfg)
{
    MachineConfig mc =
        cfg.topology
            ? MachineConfig::fromTopology(*cfg.topology, cfg.l3Size)
            : MachineConfig::paperPair(cfg.memoryModel, cfg.l3Size);
    // The spec owns the memory model on the topology path.
    cfg_.memoryModel = mc.memoryModel;
    mc.crossIsaIpiUs = cfg.crossIsaIpiUs;
    mc.cachePluginEnabled = cfg.cachePluginEnabled;
    mc.streamMlp = cfg.streamMlp;
    mc.snoopCosts = cfg.snoopCosts;
    mc.trace = cfg.trace;
    mc.faultPlan = cfg.faultPlan;
    if (cfg.crash.enabled && !mc.faultPlan) {
        // The detector needs the resilient transport (retries,
        // timeouts) to ride out a peer dying mid-RPC; an empty plan
        // turns that machinery on without injecting anything.
        mc.faultPlan = FaultPlan{};
    }
    machine_ = std::make_unique<Machine>(mc);

    // Messaging area (SHM transport): placed per the paper's rules,
    // reserved from kernel allocators.
    std::vector<AddrRange> reserved;
    if (cfg.transport == Transport::SharedMemory) {
        Addr base =
            ShmMessageLayer::areaBaseFor(machine_->physMap());
        reserved.push_back(
            {base, base + ShmMessageLayer::paperAreaBytes});
        msg_ = std::make_unique<ShmMessageLayer>(
            *machine_, base, ShmMessageLayer::paperAreaBytes,
            cfg.useIpiNotification, cfg.msgCosts);
    } else {
        msg_ = std::make_unique<TcpMessageLayer>(*machine_,
                                                 cfg.msgCosts);
    }

    guard_ = std::make_unique<RemoteAccessGuard>(cfg.remoteGuard);
    for (NodeId n = 0; n < machine_->nodeCount(); ++n) {
        kernels_.push_back(std::make_unique<KernelInstance>(
            *machine_, n, *msg_, reserved));
        KernelInstance *k = kernels_.back().get();
        k->attachGuard(guard_.get());
        msg_->registerHandler(n,
                              [k](const Message &m) { k->pump(m); });
    }

    if (cfg.osDesign == OsDesign::MultipleKernel) {
        dsmEngine_ = std::make_unique<DsmEngine>(*msg_, lookup());
        popcornFault_ =
            std::make_unique<PopcornFaultHandler>(*dsmEngine_);
        popcornFutex_ =
            std::make_unique<PopcornFutexPolicy>(*msg_, lookup());
        popcornMigration_ = std::make_unique<PopcornMigrationPolicy>(
            *msg_, lookup(), *dsmEngine_);
        for (auto &k : kernels_) {
            dsmEngine_->installHandlers(*k);
            popcornFutex_->installHandlers(*k);
            popcornMigration_->installHandlers(*k);
            k->setFaultHandler(popcornFault_.get());
            // Shared-nothing: each kernel has distinct namespaces.
            k->namespaces().pidNs = 0x1000 + k->nodeId();
            k->namespaces().mountNs = 0x2000 + k->nodeId();
            k->namespaces().netNs = 0x3000 + k->nodeId();
            k->namespaces().utsNs = 0x4000 + k->nodeId();
            k->namespaces().userNs = 0x5000 + k->nodeId();
            k->namespaces().cgroupNs = 0x6000 + k->nodeId();
        }
        futexPolicy_ = popcornFutex_.get();
        migrationPolicy_ = popcornMigration_.get();
        // Write-backs of dirty lines on replicated pages trigger the
        // DSM consistency policy (paper §9.2.2).
        machine_->caches().setWritebackHook(
            [this](NodeId n, Addr line) {
                dsmEngine_->onWriteback(n, line);
            });
    } else {
        stramashShared_ = std::make_unique<StramashShared>();
        stramashFault_ = std::make_unique<StramashFaultHandler>(
            *msg_, lookup(), *stramashShared_);
        stramashFutex_ = std::make_unique<StramashFutexPolicy>(
            lookup(), *stramashShared_);
        stramashMigration_ = std::make_unique<StramashMigrationPolicy>(
            *msg_, lookup(), *stramashShared_);
        for (auto &k : kernels_) {
            stramashFault_->installHandlers(*k);
            stramashMigration_->installHandlers(*k);
            k->setFaultHandler(stramashFault_.get());
            // Fused namespaces: identical ids everywhere (§6.6).
            k->namespaces().pidNs = 0x77;
            k->namespaces().mountNs = 0x78;
            k->namespaces().netNs = 0x79;
            k->namespaces().utsNs = 0x7a;
            k->namespaces().userNs = 0x7b;
            k->namespaces().cgroupNs = 0x7c;
        }
        futexPolicy_ = stramashFutex_.get();
        migrationPolicy_ = stramashMigration_.get();

        if (cfg.enableGlobalAllocator) {
            std::vector<KernelInstance *> ks;
            for (auto &k : kernels_)
                ks.push_back(k.get());
            gma_ = std::make_unique<GlobalMemoryAllocator>(
                *machine_, ks, cfg.gma, reserved, msg_.get());
            for (auto &k : kernels_) {
                k->setLowMemoryHook([this](KernelInstance &ki) {
                    return gma_->onLowMemory(ki);
                });
            }
        }
    }

    // Link-only plans deliberately do NOT imply a CrashManager: a
    // partition without a detector is a pure transport drill. Fencing
    // under partitions needs crash.enabled like any other detection.
    bool crashPlanned = cfg.faultPlan && cfg.faultPlan->crashPlanned();
    if (crashPlanned || cfg.crash.enabled) {
        crash_ = std::make_unique<CrashManager>(
            *machine_, *msg_, lookup(), kernels_.size(), cfg.osDesign,
            *migrationPolicy_, cfg.crash);
        crash_->setDsm(dsmEngine_.get());
        crash_->setGma(gma_.get());
        crash_->setStramashShared(stramashShared_.get());
        for (auto &k : kernels_)
            crash_->installHandlers(*k);
        // Heal/reconcile rides every link transition: un-fence a
        // self-fenced endpoint, hot-plug a partition-fenced one, and
        // clear the partition's leftover suspicion.
        machine_->setLinkEventHook(
            [this](NodeId f, NodeId t, LinkState s) {
                crash_->onLinkChange(f, t, s);
            });
    }
}

System::~System() = default;

KernelInstance &
System::kernel(NodeId node)
{
    for (auto &k : kernels_) {
        if (k->nodeId() == node)
            return *k;
    }
    panic("unknown kernel node ", node);
}

KernelInstance &
System::kernelByIsa(IsaType isa)
{
    // Only well-defined when exactly one alive kernel runs the ISA;
    // N-node topologies can run it on several nodes, and silently
    // picking whichever was built first would hide the ambiguity.
    KernelInstance *match = nullptr;
    for (auto &k : kernels_) {
        if (k->isa() != isa || !machine_->nodeAlive(k->nodeId()))
            continue;
        panic_if(match, "kernelByIsa(", isaName(isa),
                 "): ambiguous — kernels on nodes ", match->nodeId(),
                 " and ", k->nodeId(), " both run ", isaName(isa),
                 "; address kernels by node id in N-node topologies");
        match = k.get();
    }
    panic_if(!match, "no alive kernel with ISA ", isaName(isa));
    return *match;
}

NodeId
System::firstAliveFrom(NodeId from) const
{
    std::size_t n = kernels_.size();
    for (std::size_t step = 0; step < n; ++step) {
        NodeId cand = static_cast<NodeId>((from + step) % n);
        if (machine_->nodeAlive(cand))
            return cand;
    }
    panic("firstAliveFrom: every node is dead");
}

NodeId
System::placeNode(const PlacementHints &hints)
{
    if (placer_)
        return placer_->place(hints);
    // No policy attached: honour the pin (sliding off a dead node
    // the same way migrateToNext does), default to node 0.
    return firstAliveFrom(hints.pin.value_or(0));
}

Pid
System::spawnPlaced(const PlacementHints &hints, NodeId *chosen)
{
    NodeId origin = placeNode(hints);
    if (chosen)
        *chosen = origin;
    return spawn(origin);
}

Pid
System::spawn(NodeId origin)
{
    Pid pid = nextPid_++;
    kernel(origin).createTask(pid, origin);
    if (popcornMigration_)
        popcornMigration_->trackTask(pid, origin);
    if (stramashMigration_)
        stramashMigration_->trackTask(pid, origin);
    return pid;
}

void
System::exit(Pid pid)
{
    if (crash_) {
        // Settle any pending crash first so the teardown below never
        // frees frames into a dead (or rebooted) allocator; a reaped
        // task was already torn down by recovery.
        crash_->guardTask(pid);
        if (crash_->taskReaped(pid))
            return;
    }
    // Frames borrowed from another kernel's allocator go home
    // before the task records disappear.
    std::vector<std::pair<NodeId, Addr>> borrowed;
    for (auto &k : kernels_) {
        if (Task *t = k->findTask(pid)) {
            borrowed.insert(borrowed.end(), t->borrowedPages.begin(),
                            t->borrowedPages.end());
            t->borrowedPages.clear();
        }
    }
    for (auto &k : kernels_) {
        if (k->hasTask(pid))
            k->destroyTask(pid);
    }
    for (auto [home, pa] : borrowed)
        kernel(home).freeUserPage(pa);
}

void
System::migrate(Pid pid, NodeId dest)
{
    if (crash_) {
        crash_->guardTask(pid);
        if (crash_->taskReaped(pid))
            return;
        if (!machine_->nodeAlive(dest)) {
            crash_->recovery().counter("migrations_refused_dead") += 1;
            return;
        }
    }
    NodeId src = whereIs(pid);
    // Span on the source track: covers state transform, the wire
    // transfer and the destination-side handler (which runs nested
    // inside dispatch while this frame is live).
    STRAMASH_TRACE_SPAN(machine_->tracer(), TraceCategory::Migrate,
                        "migrate.thread", src, pid, src, dest);
    migrationPolicy_->migrate(pid, dest);
}

void
System::migrateProcess(Pid pid, NodeId dest)
{
    if (crash_) {
        crash_->guardTask(pid);
        if (crash_->taskReaped(pid))
            return;
        if (!machine_->nodeAlive(dest)) {
            crash_->recovery().counter("migrations_refused_dead") += 1;
            return;
        }
    }
    NodeId src = whereIs(pid);
    STRAMASH_TRACE_SPAN(machine_->tracer(), TraceCategory::Migrate,
                        "migrate.process", src, pid, src, dest);
    migrationPolicy_->migrateProcess(pid, dest);
}

void
System::killNode(NodeId node)
{
    panic_if(!crash_, "killNode without crash machinery: set "
                      "SystemConfig::crash.enabled or plan a crash");
    crash_->killNow(node);
}

void
System::rejoinNode(NodeId node)
{
    panic_if(!crash_, "rejoinNode without crash machinery");
    crash_->rejoin(node);
}

void
System::severLink(NodeId a, NodeId b)
{
    machine_->setLinkState(a, b, LinkState::Severed);
    machine_->setLinkState(b, a, LinkState::Severed);
}

void
System::healLink(NodeId a, NodeId b)
{
    machine_->setLinkState(a, b, LinkState::Up);
    machine_->setLinkState(b, a, LinkState::Up);
}

NodeId
System::whereIs(Pid pid) const
{
    if (popcornMigration_)
        return popcornMigration_->currentNode(pid);
    return stramashMigration_->currentNode(pid);
}

void
System::resetExperimentCounters(bool flushCaches)
{
    machine_->resetTiming(flushCaches);
    msg_->resetCounters();
    migrationPolicy_->resetCounters();
}

std::uint64_t
System::replicatedPages() const
{
    return migrationPolicy_->replicatedPages();
}

bool
System::writeChromeTrace(const std::string &path)
{
    ChromeTraceExporter exporter(machine_->tracer());
    for (NodeId n = 0; n < machine_->nodeCount(); ++n) {
        exporter.setNodeLabel(
            n, "node" + std::to_string(n) + " (" +
                   isaName(machine_->node(n).isa()) + ")");
    }
    return exporter.writeFile(path);
}

void
System::forEachStatGroup(
    const std::function<void(const StatGroup &)> &fn)
{
    for (NodeId n = 0; n < machine_->nodeCount(); ++n)
        fn(machine_->node(n).stats());
    fn(msg_->stats());
    fn(guard_->stats());
    for (auto &k : kernels_) {
        fn(k->stats());
        fn(k->palloc().stats());
    }
    if (gma_)
        fn(gma_->stats());
    if (crash_)
        fn(crash_->recovery());
    if (FaultInjector *fi = machine_->faultInjector()) {
        fn(fi->faults());
        fn(fi->retries());
        fn(fi->partition());
    }
    for (const StatGroup *g : externalStats_)
        fn(*g);
}

void
System::registerExternalStatGroup(const StatGroup *group)
{
    panic_if(!group, "registerExternalStatGroup(nullptr)");
    if (std::find(externalStats_.begin(), externalStats_.end(),
                  group) == externalStats_.end())
        externalStats_.push_back(group);
}

void
System::unregisterExternalStatGroup(const StatGroup *group)
{
    externalStats_.erase(std::remove(externalStats_.begin(),
                                     externalStats_.end(), group),
                         externalStats_.end());
}

bool
System::writeStatsJson(const std::string &path)
{
    JsonStatsExporter exporter;
    forEachStatGroup([&](const StatGroup &g) { exporter.add(g); });
    return exporter.writeFile(path);
}

} // namespace stramash

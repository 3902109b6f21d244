#include "stramash/kernel/kernel.hh"

#include <algorithm>

#include "stramash/isa/isa.hh"

namespace stramash
{

KernelInstance::KernelInstance(Machine &machine, NodeId node,
                               MessageLayer &msg,
                               const std::vector<AddrRange> &reserved)
    : machine_(machine),
      node_(node),
      isa_(machine.node(node).isa()),
      accessInstructions_(static_cast<ICount>(
          std::max(1.0, isaDescriptor(isa_).instExpansion))),
      msg_(msg),
      stats_(std::string("kernel.node") + std::to_string(node)),
      palloc_(std::string("palloc.node") + std::to_string(node))
{
    // Boot-time memory discovery (paper §6.1): read the firmware
    // map, take only the ranges assigned to this kernel, and carve
    // the kernel data region out of the first one.
    const PhysMap &map = machine.physMap();
    auto ranges = map.bootRanges(node);
    fatal_if(ranges.empty(), "node ", node, " booted with no memory");

    IntervalSet usable;
    for (const auto &r : ranges)
        usable.insert(r);
    for (const auto &r : reserved) {
        if (!r.empty())
            usable.erase(r.start, r.end);
    }

    auto data = usable.allocate(dataRegionBytes);
    fatal_if(!data, "node ", node,
             " has too little memory for the kernel data region");
    dataRegion_ = *data;
    dataBump_ = dataRegion_.start;
    dataHashBase_ = dataRegion_.start + dataBumpBytes;
    dataHashSize_ = dataRegionBytes - dataBumpBytes;

    for (const auto &r : usable.extents())
        palloc_.addRange(r);
    bootExtents_ = usable.extents();

    // Fused namespace defaults (paper §6.6); System overwrites them
    // with a synchronised set when the fused design is active.
    namespaces_.hostname = "stramash";
    for (NodeId n = 0; n < machine.nodeCount(); ++n) {
        const Node &nd = machine.node(n);
        for (unsigned c = 0; c < nd.config().numCores; ++c) {
            namespaces_.cpus.push_back(
                {static_cast<CoreId>(n * 64 + c), n, nd.isa()});
        }
    }
}

Addr
KernelInstance::allocDataArea(Addr bytes)
{
    Addr aligned = (bytes + 63) & ~Addr{63};
    panic_if(dataBump_ + aligned > dataRegion_.start + dataBumpBytes,
             "kernel data bump area exhausted");
    Addr out = dataBump_;
    dataBump_ += aligned;
    return out;
}

Addr
KernelInstance::dataAddrFor(std::uint64_t key) const
{
    // splitmix64 finaliser: uniform spread over the hash area.
    std::uint64_t h = key + 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    h ^= h >> 31;
    Addr off = (h % (dataHashSize_ / cacheLineSize)) * cacheLineSize;
    return dataHashBase_ + off;
}

Task &
KernelInstance::createTask(Pid pid, NodeId origin)
{
    panic_if(tasks_.count(pid), "task ", pid, " already on node ",
             node_);
    auto t = std::make_unique<Task>();
    t->pid = pid;
    t->origin = origin;

    const IsaDescriptor &desc = isaDescriptor(isa_);
    const PteFormat *foreign = nullptr;
    // Two-ISA machine: the other node's format is the foreign driver.
    for (NodeId n = 0; n < machine_.nodeCount(); ++n) {
        if (n != node_)
            foreign = isaDescriptor(machine_.node(n).isa()).pteFormat;
    }

    Addr lockWords = allocDataArea(128);
    t->as = std::make_unique<AddressSpace>(
        machine_.memory(), *desc.pteFormat, foreign,
        [this] {
            Addr pa = allocUserPage(false);
            // Page-table frames are part of the legitimately-shared
            // set: the remote walkers traverse them.
            if (guard_)
                guard_->allow(node_, {pa, pa + pageSize});
            return pa;
        },
        [this](Addr pa) {
            if (guard_)
                guard_->revoke(node_, {pa, pa + pageSize});
            freeUserPage(pa);
        }, lockWords);

    auto &ref = *t;
    tasks_.emplace(pid, std::move(t));
    machine_.notePlacementChange();
    stats_.counter("tasks_created") += 1;
    return ref;
}

Task *
KernelInstance::findTask(Pid pid)
{
    auto it = tasks_.find(pid);
    return it == tasks_.end() ? nullptr : it->second.get();
}

Task &
KernelInstance::task(Pid pid)
{
    Task *t = findTask(pid);
    panic_if(!t, "no task ", pid, " on node ", node_);
    return *t;
}

void
KernelInstance::destroyTask(Pid pid)
{
    Task *t = findTask(pid);
    panic_if(!t, "destroying unknown task ", pid);
    if (faultHandler_)
        faultHandler_->onTaskExit(*this, *t);
    // Release pages this kernel allocated for the task (§6.4: "the
    // remote kernel ... takes responsibility for ... releasing the
    // page").
    for (Addr pa : t->ownedPages)
        freeUserPage(pa);
    t->ownedPages.clear();
    tasks_.erase(pid);
    machine_.notePlacementChange();
    stats_.counter("tasks_destroyed") += 1;
}

void
KernelInstance::forEachTask(const std::function<void(Task &)> &fn)
{
    for (auto &[pid, t] : tasks_)
        fn(*t);
}

void
KernelInstance::resetForRejoin()
{
    // Task records go without the policy exit hooks: this kernel
    // crashed, and crash recovery has already settled whatever shared
    // state referenced these tasks. The address-space destructors
    // still run their frame callbacks (guard revocations), which is
    // harmless against the pre-reset allocator state.
    tasks_.clear();
    machine_.notePlacementChange();
    futexes_.clear();

    // A rebooted kernel rediscovers its memory from the firmware map:
    // exactly the boot-time extents, regardless of what the global
    // allocator had onlined or offlined before the crash.
    palloc_.reset();
    for (const auto &r : bootExtents_)
        palloc_.addRange(r);
    dataBump_ = dataRegion_.start;

    stats_.counter("rejoins") += 1;
    machine_.tracer().instant(TraceCategory::Chaos, "crash.rejoin",
                              node_, 0, node_, 0);
}

Addr
KernelInstance::allocUserPage(bool zero)
{
    if (lowMem_ && palloc_.pressure() > 0.70)
        lowMem_(*this);
    auto pa = palloc_.allocPage();
    if (!pa && lowMem_ && lowMem_(*this))
        pa = palloc_.allocPage();
    panic_if(!pa, "node ", node_, " out of physical memory");
    if (zero) {
        machine_.memory().zero(*pa, pageSize);
        machine_.streamAccess(node_, AccessType::Store, *pa,
                              pageSize);
    }
    return *pa;
}

void
KernelInstance::freeUserPage(Addr pa)
{
    palloc_.freePage(pa);
}

bool
KernelInstance::handleLocalAnonFault(Task &t, Addr va, AccessType type)
{
    (void)type;
    const Vma *vma = t.as->vmas().find(va);
    if (!vma)
        return false;
    Addr pa = allocUserPage(true);
    t.ownedPages.push_back(pa);
    PteAttrs attrs = vma->prot;
    attrs.present = true;
    attrs.accessed = true;
    bool ok = t.as->mapPage(va, pa, attrs);
    panic_if(!ok, "local fault raced an existing mapping");
    stats_.counter("anon_faults") += 1;
    machine_.tracer().instant(TraceCategory::Fault, "fault.local",
                              node_, t.pid, pageBase(va), pa);
    return true;
}

XlateResult
KernelInstance::resolve(Task &t, Addr va, AccessType type)
{
    for (int attempt = 0; attempt < 8; ++attempt) {
        XlateResult x = t.as->translate(va, type);
        if (x.status == XlateStatus::Ok)
            return x;
        panic_if(!faultHandler_, "fault with no handler installed");
        stats_.counter("page_faults") += 1;
        // The span brackets the whole design-specific fault path —
        // everything it triggers (remote walks, DSM messages, IPIs)
        // nests inside it on this node's track.
        STRAMASH_TRACE_SPAN(machine_.tracer(), TraceCategory::Fault,
                            "fault.handle", node_, t.pid, va,
                            static_cast<std::uint64_t>(type));
        faultHandler_->handleFault(*this, t, va, x.status, type);
    }
    panic("persistent fault at va 0x", std::hex, va, " on node ",
          std::dec, node_);
}

XlateResult
KernelInstance::userAccess(Task &t, Addr va, AccessType type,
                           unsigned size)
{
    XlateResult x = resolve(t, va, type);
    const GuestMemory &mem = machine_.memory();
    std::uint64_t discards = mem.discards();
    machine_.dataAccess(node_, type, x.pa, size);
    if (mem.discards() != discards || pageOffset(x.pa) + size > pageSize)
        x.host = nullptr;
    return x;
}

void
KernelInstance::userRead(Task &t, Addr va, void *dst, std::size_t size)
{
    auto *out = static_cast<std::uint8_t *>(dst);
    while (size > 0) {
        auto chunk = static_cast<unsigned>(std::min<std::size_t>(
            size, pageSize - pageOffset(va)));
        copyOut(userAccess(t, va, AccessType::Load, chunk), out, chunk);
        out += chunk;
        va += chunk;
        size -= chunk;
    }
}

void
KernelInstance::userWrite(Task &t, Addr va, const void *src,
                          std::size_t size)
{
    auto *in = static_cast<const std::uint8_t *>(src);
    while (size > 0) {
        auto chunk = static_cast<unsigned>(std::min<std::size_t>(
            size, pageSize - pageOffset(va)));
        copyIn(userAccess(t, va, AccessType::Store, chunk), in, chunk);
        in += chunk;
        va += chunk;
        size -= chunk;
    }
}

std::uint32_t
KernelInstance::userCas(Task &t, Addr va, std::uint32_t expected,
                        std::uint32_t desired, bool &success)
{
    // A CAS needs exclusive ownership regardless of outcome: charge
    // a store access.
    XlateResult x = userAccess(t, va, AccessType::Store, 4);
    std::uint32_t old;
    copyOut(x, &old, 4);
    success = old == expected;
    if (success)
        copyIn(x, &desired, 4);
    return old;
}

std::uint32_t
KernelInstance::userFetchAdd(Task &t, Addr va, std::uint32_t delta)
{
    XlateResult x = userAccess(t, va, AccessType::Store, 4);
    std::uint32_t old;
    copyOut(x, &old, 4);
    std::uint32_t sum = old + delta;
    copyIn(x, &sum, 4);
    return old;
}

const char *
guardModeName(GuardMode m)
{
    switch (m) {
      case GuardMode::Off: return "off";
      case GuardMode::Audit: return "audit";
      case GuardMode::Enforce: return "enforce";
    }
    panic("unknown GuardMode");
}

void
KernelInstance::attachGuard(RemoteAccessGuard *guard)
{
    guard_ = guard;
    if (!guard_)
        return;
    // The shared set: the whole kernel data region (lock words,
    // hashed structures, mailbox). Page-table frames join as they
    // are allocated (createTask's frame callbacks).
    guard_->allow(node_, dataRegion_);
}

Cycles
KernelInstance::remoteAccess(NodeId owner, AccessType type, Addr addr,
                             unsigned size)
{
    if (guard_)
        guard_->checkAccess(node_, owner, addr, size);
    return machine_.dataAccess(node_, type, addr, size);
}

void
KernelInstance::registerMsgHandler(
    MsgType type, std::function<void(const Message &)> fn)
{
    msgHandlers_[type] = std::move(fn);
}

void
KernelInstance::pump(const Message &msg)
{
    auto it = msgHandlers_.find(msg.type);
    panic_if(it == msgHandlers_.end(), "node ", node_,
             ": no handler for ", msgTypeName(msg.type));
    it->second(msg);
}

void
destroyTaskEverywhere(const std::function<KernelInstance &(NodeId)> &kernel,
                      std::size_t nodes, Pid pid,
                      const std::function<bool(NodeId)> &takesFrames)
{
    std::vector<std::pair<NodeId, Addr>> borrowed;
    for (NodeId n = 0; n < nodes; ++n) {
        Task *t = kernel(n).findTask(pid);
        if (!t)
            continue;
        for (auto [home, pa] : t->borrowedPages) {
            if (takesFrames(home))
                borrowed.emplace_back(home, pa);
        }
        t->borrowedPages.clear();
    }
    for (NodeId n = 0; n < nodes; ++n) {
        if (kernel(n).hasTask(pid))
            kernel(n).destroyTask(pid);
    }
    for (auto [home, pa] : borrowed)
        kernel(home).freeUserPage(pa);
}

} // namespace stramash

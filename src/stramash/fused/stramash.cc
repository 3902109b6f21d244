#include "stramash/fused/stramash.hh"

namespace stramash
{

TaggedFmtFn
taggedFormatOf(const StramashShared &shared, Machine &machine, Pid pid,
               const PteFormat &fallback)
{
    return [&shared, &machine, pid,
            &fallback](Addr va) -> const PteFormat & {
        auto pit = shared.foreignMapped.find(pid);
        if (pit != shared.foreignMapped.end()) {
            auto vit = pit->second.find(pageBase(va));
            if (vit != pit->second.end())
                return pteFormatFor(machine.node(vit->second).isa());
        }
        return fallback;
    };
}

void
copyVmasRemote(KernelInstance &reader, KernelInstance &owner, Task &src,
               Task &dst)
{
    Pid pid = src.pid;
    unsigned i = 0;
    src.as->vmas().forEach([&](const Vma &v) {
        reader.remoteAccess(owner.nodeId(), AccessType::Load,
                            owner.dataAddrFor((Addr{pid} << 32) ^ i), 64);
        ++i;
        if (!dst.as->vmas().find(v.start))
            (void)dst.as->vmas().insert(v);
    });
}

std::uint64_t
adoptFramesRemote(KernelInstance &reader, KernelInstance &owner,
                  const StramashShared &shared, Task &src, Task &dst)
{
    const PageTable &spt = src.as->pageTable();
    auto touch = [&](AccessType type, Addr a) {
        reader.remoteAccess(owner.nodeId(), type, a, 8);
    };
    TaggedFmtFn taggedFmtOf =
        taggedFormatOf(shared, reader.machine(), src.pid,
                       dst.as->pageTable().format());
    std::uint64_t mapped = 0;
    reader.remoteAccess(owner.nodeId(), AccessType::Store,
                        src.as->ptlAddr(), 8);
    dst.as->vmas().forEach([&](const Vma &v) {
        for (Addr va = v.start; va < v.end; va += pageSize) {
            if (dst.as->pageTable().walk(va))
                continue;
            auto w = walkForeign(reader.machine().memory(), spt.format(),
                                 spt.rootAddr(), va, touch, taggedFmtOf);
            if (!w)
                continue;
            (void)dst.as->mapPage(va, w->pte.frame,
                                  vmaPageAttrs(v, v.prot.writable));
            ++mapped;
        }
    });
    reader.remoteAccess(owner.nodeId(), AccessType::Store,
                        src.as->ptlAddr(), 8);
    return mapped;
}

// ===================== StramashFaultHandler ==========================

StramashFaultHandler::StramashFaultHandler(MessageLayer &msg,
                                           KernelLookup kernels,
                                           StramashShared &shared)
    : msg_(msg), kernels_(std::move(kernels)), shared_(shared)
{
}

void
StramashFaultHandler::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(MsgType::RemoteFaultRequest,
                         [this, &k](const Message &m) {
                             onRemoteFaultRequest(k, m);
                         });
}

void
StramashFaultHandler::lockWord(KernelInstance &k, NodeId owner,
                               Addr addr)
{
    // Cross-ISA CAS acquisition (LSE, §6.5): exclusive-ownership
    // store on the lock word. Remote lock words pay remote latency;
    // the guard verifies the word is in the owner's shared set.
    k.remoteAccess(owner, AccessType::Store, addr, 8);
}

void
StramashFaultHandler::unlockWord(KernelInstance &k, NodeId owner,
                                 Addr addr)
{
    k.remoteAccess(owner, AccessType::Store, addr, 8);
}

void
StramashFaultHandler::remoteVmaWalk(KernelInstance &k, Task &t, Addr va)
{
    KernelInstance &origin = kernels_(t.origin);
    Task &ot = origin.task(t.pid);

    // "each kernel can access the other kernel's VMA lists, with
    // appropriate VMA locks acquired" (§6.4).
    lockWord(k, t.origin, ot.as->vmaLockAddr());
    unsigned visited = 0;
    const Vma *vma = ot.as->vmas().findCounting(va, visited);
    // Each visited tree node is a (remote) cache-line read in the
    // origin's kernel data region.
    for (unsigned i = 0; i < visited; ++i) {
        std::uint64_t key = (static_cast<std::uint64_t>(t.pid) << 40) ^
                            0x564d41 ^ (static_cast<std::uint64_t>(i)
                                        << 20) ^
                            (va >> 30);
        k.remoteAccess(t.origin, AccessType::Load,
                       origin.dataAddrFor(key), 64);
    }
    unlockWord(k, t.origin, ot.as->vmaLockAddr());

    panic_if(!vma, "remote fault outside every origin VMA at 0x",
             std::hex, va);
    bool ok = t.as->vmas().insert(*vma);
    panic_if(!ok, "remote VMA conflicts with local tree");
}

void
StramashFaultHandler::handleFault(KernelInstance &kernel, Task &task,
                                  Addr va, XlateStatus kind,
                                  AccessType type)
{
    NodeId self = kernel.nodeId();
    Addr vpage = pageBase(va);

    panic_if(kind == XlateStatus::NoWrite,
             "Stramash maps with full VMA permissions; write-protect "
             "fault at 0x", std::hex, va);

    if (task.origin == self) {
        bool ok = kernel.handleLocalAnonFault(task, va, type);
        panic_if(!ok, "origin fault outside every VMA at 0x", std::hex,
                 va);
        return;
    }

    // ---- Remote-side fault ----
    if (!task.as->vmas().find(va))
        remoteVmaWalk(kernel, task, va);
    const Vma *vma = task.as->vmas().find(va);
    panic_if(!vma, "no VMA after remote walk");

    KernelInstance &origin = kernels_(task.origin);
    Task &ot = origin.task(task.pid);
    const PteFormat &ofmt = ot.as->pageTable().format();
    const PteFormat &sfmt = task.as->pageTable().format();
    GuestMemory &mem = kernel.machine().memory();
    TouchFn touch = [&](AccessType at, Addr a) {
        kernel.remoteAccess(task.origin, at, a, 8);
    };

    // Cross-ISA page table lock (Stramash-PTL, §6.4).
    lockWord(kernel, task.origin, ot.as->ptlAddr());

    // Software remote page table walk in the origin's format, with
    // per-level masks re-defined by the format object (§6.4).
    std::optional<Addr> leafEa = findLeafEntry(
        mem, ofmt, ot.as->pageTable().rootAddr(), vpage, touch);

    if (!leafEa) {
        // Slow path (§9.2.3): only PTE-level insertion is allowed
        // remotely; a missing upper level is the origin's problem.
        unlockWord(kernel, task.origin, ot.as->ptlAddr());
        ++shared_.slowPathFaults;
        kernel.machine().tracer().instant(TraceCategory::Fault,
                                          "fault.slow_path", self,
                                          task.pid, vpage);
        Message req;
        req.type = MsgType::RemoteFaultRequest;
        req.from = self;
        req.to = task.origin;
        req.arg0 = task.pid;
        req.arg1 = vpage;
        if (!msg_.tryRpc(req, MsgType::RemoteFaultResponse)) {
            // Origin unreachable: leave the page unmapped and let the
            // architectural retry loop re-fault.
            kernel.stats().counter("slow_path_unreachable") += 1;
            return;
        }
        // The chain now exists; retry resolves via the fast path.
        handleFault(kernel, task, va, kind, type);
        return;
    }

    // A tagged entry decodes in its *writer's* format — on an N-node
    // machine that may be a third kernel, not us.
    DecodedPte leaf = readLeaf(
        mem, ofmt, *leafEa, vpage, touch,
        taggedFormatOf(shared_, kernel.machine(), task.pid, sfmt));

    PteAttrs attrs = vmaPageAttrs(*vma, vma->prot.writable);

    if (leaf.attrs.present) {
        // The origin already backs this page: point our page table
        // at the *same* physical frame — cache-coherent shared
        // memory does the rest. No copy, no message.
        bool ok = task.as->mapPage(vpage, leaf.frame, attrs);
        panic_if(!ok, "shared mapping raced");
        ++shared_.sharedMappings;
        kernel.stats().counter("stramash_shared_maps") += 1;
        kernel.machine().tracer().instant(TraceCategory::Fault,
                                          "fault.shared_map", self,
                                          task.pid, vpage, leaf.frame);
    } else {
        // Fast path: allocate from our own memory, map locally, and
        // insert into the origin's table in *our* format, tagged for
        // reconciliation at migrate-back.
        Addr pa = kernel.allocUserPage(true);
        task.ownedPages.push_back(pa);
        bool ok = task.as->mapPage(vpage, pa, attrs);
        panic_if(!ok, "fast-path mapping raced");
        writeTaggedLeaf(mem, sfmt, *leafEa, pa, attrs, touch);
        shared_.foreignMapped[task.pid][vpage] = self;
        ++shared_.foreignInsertions;
        kernel.stats().counter("stramash_foreign_inserts") += 1;
        kernel.machine().tracer().instant(TraceCategory::Fault,
                                          "fault.foreign_insert", self,
                                          task.pid, vpage, pa);
    }
    unlockWord(kernel, task.origin, ot.as->ptlAddr());
}

void
StramashFaultHandler::onRemoteFaultRequest(KernelInstance &k,
                                           const Message &m)
{
    Task &t = k.task(static_cast<Pid>(m.arg0));
    // Build the table chain; a few local table-frame writes.
    t.as->pageTable().buildChain(m.arg1);
    k.machine().dataAccess(k.nodeId(), AccessType::Store,
                           k.dataAddrFor(m.arg1 ^ 0x510), 64);
    Message resp;
    resp.type = MsgType::RemoteFaultResponse;
    resp.from = k.nodeId();
    resp.to = m.from;
    resp.arg0 = m.arg0;
    resp.arg1 = m.arg1;
    msg_.send(resp);
}

void
StramashFaultHandler::onTaskExit(KernelInstance &kernel, Task &task)
{
    // "the origin kernel only invalidates the PTE and does not
    // attempt to release the page" — frames are freed by whichever
    // kernel allocated them (Task::ownedPages), so only the foreign
    // bookkeeping needs dropping here.
    if (task.origin == kernel.nodeId())
        shared_.foreignMapped.erase(task.pid);
}

// ===================== StramashFutexPolicy ===========================

StramashFutexPolicy::StramashFutexPolicy(KernelLookup kernels,
                                         StramashShared &shared)
    : kernels_(std::move(kernels)), shared_(shared)
{
}

bool
StramashFutexPolicy::wait(KernelInstance &kernel, Task &task, Addr uaddr,
                          std::uint32_t expected)
{
    std::uint32_t v = kernel.userLoad<std::uint32_t>(task, uaddr);
    if (v != expected)
        return false;

    // Direct access to the origin kernel's futex list (§6.5): lock
    // the hash bucket, link the waiter — plain (possibly remote)
    // memory traffic, no messages.
    KernelInstance &origin = kernels_(task.origin);
    Addr bucket = origin.dataAddrFor(uaddr ^ 0xf07e);
    kernel.remoteAccess(task.origin, AccessType::Store, bucket,
                        8); // bucket lock (CAS)
    kernel.remoteAccess(task.origin, AccessType::Store, bucket + 64,
                        16); // queue link
    origin.futexTable().enqueue(uaddr, {kernel.nodeId(), task.pid});
    kernel.remoteAccess(task.origin, AccessType::Store, bucket,
                        8); // unlock
    return true;
}

unsigned
StramashFutexPolicy::wake(KernelInstance &kernel, Task &task, Addr uaddr,
                          unsigned count)
{
    KernelInstance &origin = kernels_(task.origin);
    Addr bucket = origin.dataAddrFor(uaddr ^ 0xf07e);
    kernel.remoteAccess(task.origin, AccessType::Store, bucket, 8);
    kernel.remoteAccess(task.origin, AccessType::Load, bucket + 64,
                        16);
    auto woken = origin.futexTable().wake(uaddr, count);
    kernel.remoteAccess(task.origin, AccessType::Store, bucket, 8);
    for (const auto &w : woken) {
        if (w.node != kernel.nodeId()) {
            // "only one cross-ISA IPI is needed to wake up the
            // waiting thread" (§9.2.6).
            kernel.machine().sendIpi(kernel.nodeId(), w.node);
        }
    }
    return static_cast<unsigned>(woken.size());
}

// ===================== StramashMigrationPolicy =======================

StramashMigrationPolicy::StramashMigrationPolicy(MessageLayer &msg,
                                                 KernelLookup kernels,
                                                 StramashShared &shared)
    : MigrationPolicy(msg.machine()),
      msg_(msg),
      kernels_(std::move(kernels)),
      shared_(shared)
{
}

void
StramashMigrationPolicy::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(MsgType::TaskMigrate,
                         [this, &k](const Message &m) {
                             onTaskMigrate(k, m);
                         });
    k.registerMsgHandler(MsgType::ProcessMigrate,
                         [&k](const Message &) {
                             // Source-side retirement notification.
                             k.stats().counter(
                                 "process_migrations_out") += 1;
                         });
}

void
StramashMigrationPolicy::migrate(Pid pid, NodeId dest)
{
    NodeId src = currentNode(pid);
    if (src == dest)
        return;
    KernelInstance &ks = kernels_(src);
    Task &ts = ks.task(pid);

    ks.machine().stall(src, transformCycles);

    // Hand the transformed state over through shared memory: write
    // the mailbox (charged), then one notification message.
    if (shared_.mailbox == 0) {
        shared_.mailbox = ks.allocDataArea(256);
        shared_.mailboxOwner = src;
    }
    std::vector<std::uint8_t> wire(migrationStateWireSize());
    serializeMigrationState(ts.state, wire.data());
    ks.machine().memory().write(shared_.mailbox, wire.data(),
                                wire.size());
    ks.remoteAccess(shared_.mailboxOwner, AccessType::Store,
                    shared_.mailbox,
                    static_cast<unsigned>(wire.size()));

    Message m;
    m.type = MsgType::TaskMigrate;
    m.from = src;
    m.to = dest;
    m.arg0 = pid;
    m.arg1 = ts.origin;
    m.arg2 = shared_.mailbox;
    if (msg_.sendReliable(m) != Errc::Ok) {
        // Destination unreachable: the thread stays put (the mailbox
        // write is idempotent — a later migrate simply rewrites it).
        ks.stats().counter("migrations_aborted") += 1;
        ks.machine().tracer().instant(TraceCategory::Chaos,
                                      "migrate.aborted", src, pid,
                                      dest);
        return;
    }

    setCurrentNode(pid, dest);
}

void
StramashMigrationPolicy::migrateProcess(Pid pid, NodeId dest)
{
    NodeId src = currentNode(pid);
    if (src == dest)
        return;
    KernelInstance &ks = kernels_(src);
    KernelInstance &kd = kernels_(dest);
    Task &ts = ks.task(pid);
    panic_if(src != ts.origin,
             "process migration must start from the origin (migrate "
             "the thread home first)");
    Machine &machine = ks.machine();

    machine.stall(src, transformCycles);

    // Fresh task at the destination — it becomes the new origin.
    if (kd.hasTask(pid))
        kd.destroyTask(pid);
    Task &td = kd.createTask(pid, dest);
    td.state = ts.state;
    td.heapBrk = ts.heapBrk;
    machine.stall(dest, transformCycles);

    // The destination reads the source's VMA tree directly (charged
    // remote walks under the VMA lock), then adopts every resident
    // page: the new table points at the *same* frames, no content
    // moves.
    kd.remoteAccess(src, AccessType::Store, ts.as->vmaLockAddr(), 8);
    copyVmasRemote(kd, ks, ts, td);
    kd.remoteAccess(src, AccessType::Store, ts.as->vmaLockAddr(), 8);
    (void)adoptFramesRemote(kd, ks, shared_, ts, td);

    // Frame ownership: the frames stay in whichever kernel's memory
    // they were allocated from; the new task borrows them and
    // System::exit routes them home.
    for (Addr pa : ts.ownedPages)
        td.borrowedPages.emplace_back(src, pa);
    for (auto bp : ts.borrowedPages)
        td.borrowedPages.push_back(bp);
    ts.ownedPages.clear();
    ts.borrowedPages.clear();

    // One notification so the source-side scheduler retires the
    // task; then the source forgets it (§5). The destination already
    // owns the process at this point, so a lost notification only
    // costs the source-side counter — never a second live copy.
    Message note;
    note.type = MsgType::ProcessMigrate;
    note.from = dest;
    note.to = src;
    note.arg0 = pid;
    if (msg_.sendReliable(note) != Errc::Ok)
        kd.stats().counter("retire_notes_lost") += 1;

    shared_.foreignMapped.erase(pid);
    ks.destroyTask(pid);
    setCurrentNode(pid, dest);
    kd.stats().counter("process_migrations_in") += 1;
}

void
StramashMigrationPolicy::onTaskMigrate(KernelInstance &k,
                                       const Message &m)
{
    Pid pid = static_cast<Pid>(m.arg0);
    NodeId origin = static_cast<NodeId>(m.arg1);

    // Read the state out of the shared mailbox (guard-checked,
    // charged loads).
    std::vector<std::uint8_t> wire(migrationStateWireSize());
    k.remoteAccess(shared_.mailboxOwner, AccessType::Load, m.arg2,
                   static_cast<unsigned>(wire.size()));
    k.machine().memory().read(m.arg2, wire.data(), wire.size());

    Task *t = k.findTask(pid);
    if (!t)
        t = &k.createTask(pid, origin);
    t->state = deserializeMigrationState(wire.data());
    k.machine().stall(k.nodeId(), transformCycles);
    k.stats().counter("migrations_in") += 1;
    k.machine().tracer().instant(TraceCategory::Migrate, "migrate.in",
                                 k.nodeId(), pid, m.from);

    if (k.nodeId() == origin)
        reconcile(k, pid);
}

void
StramashMigrationPolicy::reconcile(KernelInstance &origin, Pid pid)
{
    auto it = shared_.foreignMapped.find(pid);
    if (it == shared_.foreignMapped.end() || it->second.empty())
        return;
    Task &t = origin.task(pid);
    Machine &machine = origin.machine();
    const PageTable &pt = t.as->pageTable();

    for (const auto &[vpage, writer] : it->second) {
        // "the origin kernel can simply reconfigure the PTE to its
        // own format" (§6.4). The entry decodes in the format of the
        // remote kernel that inserted it; one unmapped or no longer
        // tagged meanwhile is skipped.
        auto pteAddr = reconcileForeign(
            machine.memory(), pt.format(),
            pteFormatFor(machine.node(writer).isa()), pt.rootAddr(),
            vpage);
        if (!pteAddr)
            continue;
        machine.dataAccess(origin.nodeId(), AccessType::Store,
                           *pteAddr, 8);
        origin.stats().counter("ptes_reconciled") += 1;
    }
    it->second.clear();
}

} // namespace stramash

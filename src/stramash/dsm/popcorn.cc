#include "stramash/dsm/popcorn.hh"

namespace stramash
{

// ===================== PopcornFutexPolicy ============================

PopcornFutexPolicy::PopcornFutexPolicy(MessageLayer &msg,
                                       KernelLookup kernels)
    : msg_(msg), kernels_(std::move(kernels))
{
}

void
PopcornFutexPolicy::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(MsgType::FutexWait,
                         [this, &k](const Message &m) {
                             onFutexWait(k, m);
                         });
    k.registerMsgHandler(MsgType::FutexWake,
                         [this, &k](const Message &m) {
                             onFutexWake(k, m);
                         });
}

bool
PopcornFutexPolicy::wait(KernelInstance &kernel, Task &task, Addr uaddr,
                         std::uint32_t expected)
{
    // The value check happens where the task runs; DSM keeps the
    // word coherent.
    std::uint32_t v = kernel.userLoad<std::uint32_t>(task, uaddr);
    if (v != expected)
        return false;

    if (kernel.nodeId() == task.origin) {
        // Local: enqueue in the origin's futex table directly.
        kernel.machine().dataAccess(kernel.nodeId(), AccessType::Store,
                                    kernel.dataAddrFor(uaddr), 8);
        kernel.futexTable().enqueue(uaddr,
                                    {kernel.nodeId(), task.pid});
        return true;
    }

    // Remote: the origin kernel manages every futex instance; engage
    // it with a request/response round (paper §6.5).
    Message req;
    req.type = MsgType::FutexWait;
    req.from = kernel.nodeId();
    req.to = task.origin;
    req.arg0 = task.pid;
    req.arg1 = uaddr;
    req.arg2 = expected;
    if (!msg_.tryRpc(req, MsgType::FutexResponse)) {
        // Origin unreachable: degrade to a spurious wakeup — the
        // caller re-checks the futex word, exactly as after a real
        // EAGAIN race.
        kernel.stats().counter("futex_waits_unreachable") += 1;
        return false;
    }
    return true;
}

void
PopcornFutexPolicy::onFutexWait(KernelInstance &k, const Message &m)
{
    // Origin side: enqueue the remote waiter.
    k.machine().dataAccess(k.nodeId(), AccessType::Store,
                           k.dataAddrFor(m.arg1), 8);
    k.futexTable().enqueue(m.arg1, {m.from, static_cast<Pid>(m.arg0)});
    Message resp;
    resp.type = MsgType::FutexResponse;
    resp.from = k.nodeId();
    resp.to = m.from;
    resp.arg0 = m.arg0;
    resp.arg1 = m.arg1;
    msg_.send(resp);
}

unsigned
PopcornFutexPolicy::wake(KernelInstance &kernel, Task &task, Addr uaddr,
                         unsigned count)
{
    if (kernel.nodeId() == task.origin) {
        kernel.machine().dataAccess(kernel.nodeId(), AccessType::Store,
                                    kernel.dataAddrFor(uaddr), 8);
        auto woken = kernel.futexTable().wake(uaddr, count);
        for (const auto &w : woken) {
            if (w.node != kernel.nodeId()) {
                // Notify the remote kernel its thread is runnable.
                Message note;
                note.type = MsgType::FutexWake;
                note.from = kernel.nodeId();
                note.to = w.node;
                note.arg0 = w.pid;
                note.arg1 = uaddr;
                note.arg2 = 1; // notification, not a request
                if (msg_.sendReliable(note) != Errc::Ok) {
                    kernel.stats().counter("futex_wakes_lost") += 1;
                }
            }
        }
        return static_cast<unsigned>(woken.size());
    }

    // Remote: ask the origin to perform the wake.
    Message req;
    req.type = MsgType::FutexWake;
    req.from = kernel.nodeId();
    req.to = task.origin;
    req.arg0 = task.pid;
    req.arg1 = uaddr;
    req.arg2 = (static_cast<std::uint64_t>(count) << 8); // request
    auto resp = msg_.tryRpc(req, MsgType::FutexResponse);
    if (!resp) {
        // Origin unreachable after every retry: report zero wakeups.
        kernel.stats().counter("futex_wakes_unreachable") += 1;
        return 0;
    }
    return static_cast<unsigned>(resp->arg2);
}

void
PopcornFutexPolicy::onFutexWake(KernelInstance &k, const Message &m)
{
    if (m.arg2 & 1) {
        // Wake-up notification for a thread parked on this kernel:
        // scheduler work only.
        k.stats().counter("futex_wakeups_delivered") += 1;
        return;
    }
    // Origin side executing a remote kernel's wake request.
    unsigned count = static_cast<unsigned>(m.arg2 >> 8);
    k.machine().dataAccess(k.nodeId(), AccessType::Store,
                           k.dataAddrFor(m.arg1), 8);
    auto woken = k.futexTable().wake(m.arg1, count);
    for (const auto &w : woken) {
        if (w.node != k.nodeId()) {
            Message note;
            note.type = MsgType::FutexWake;
            note.from = k.nodeId();
            note.to = w.node;
            note.arg0 = w.pid;
            note.arg1 = m.arg1;
            note.arg2 = 1;
            // Fault-free: delivered when that node next dispatches (if
            // it is the requester, tryRpc() routes it to its pump).
            // Resilient mode acknowledges and retries instead.
            if (msg_.sendReliable(note, false) != Errc::Ok) {
                k.stats().counter("futex_wakes_lost") += 1;
            }
        }
    }
    Message resp;
    resp.type = MsgType::FutexResponse;
    resp.from = k.nodeId();
    resp.to = m.from;
    resp.arg0 = m.arg0;
    resp.arg1 = m.arg1;
    resp.arg2 = woken.size();
    msg_.send(resp);
}

// ===================== PopcornMigrationPolicy ========================

PopcornMigrationPolicy::PopcornMigrationPolicy(MessageLayer &msg,
                                               KernelLookup kernels,
                                               DsmEngine &engine)
    : MigrationPolicy(msg.machine()),
      msg_(msg),
      kernels_(std::move(kernels)),
      engine_(engine)
{
}

void
PopcornMigrationPolicy::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(MsgType::TaskMigrate,
                         [this, &k](const Message &m) {
                             onTaskMigrate(k, m);
                         });
    k.registerMsgHandler(MsgType::ProcessMigrate,
                         [this, &k](const Message &m) {
                             onProcessMigrate(k, m);
                         });
    k.registerMsgHandler(MsgType::ProcessVma,
                         [this, &k](const Message &m) {
                             onProcessVma(k, m);
                         });
    k.registerMsgHandler(MsgType::ProcessPage,
                         [this, &k](const Message &m) {
                             onProcessPage(k, m);
                         });
}

void
PopcornMigrationPolicy::migrate(Pid pid, NodeId dest)
{
    NodeId src = currentNode(pid);
    if (src == dest)
        return;
    KernelInstance &ks = kernels_(src);
    Task &ts = ks.task(pid);

    // State transformation at the migration point (the Popcorn
    // compiler contract): source registers -> logical state.
    ks.machine().stall(src, transformCycles);

    Message m;
    m.type = MsgType::TaskMigrate;
    m.from = src;
    m.to = dest;
    m.arg0 = pid;
    m.arg1 = ts.origin;
    m.payload.resize(migrationStateWireSize());
    serializeMigrationState(ts.state, m.payload.data());
    if (msg_.sendReliable(m) != Errc::Ok) {
        // Destination unreachable: the thread keeps running at the
        // source — migration is best-effort placement, not
        // correctness.
        ks.stats().counter("migrations_aborted") += 1;
        ks.machine().tracer().instant(TraceCategory::Chaos,
                                      "migrate.aborted", src, pid,
                                      dest);
        return;
    }

    setCurrentNode(pid, dest);
}

void
PopcornMigrationPolicy::migrateProcess(Pid pid, NodeId dest)
{
    NodeId src = currentNode(pid);
    if (src == dest)
        return;
    KernelInstance &ks = kernels_(src);
    Task &ts = ks.task(pid);
    panic_if(src != ts.origin,
             "process migration must start from the origin (migrate "
             "the thread home first)");
    ks.machine().stall(src, transformCycles);

    // 0. Reclaim any page the remote kernel currently owns so the
    //    transfer ships the latest content (ownership pull-backs go
    //    through the normal DSM write path).
    std::vector<Vma> reclaimVmas;
    ts.as->vmas().forEach(
        [&](const Vma &v) { reclaimVmas.push_back(v); });
    for (const Vma &v : reclaimVmas) {
        if (!v.prot.writable)
            continue;
        for (Addr va = v.start; va < v.end; va += pageSize) {
            if (ts.as->pageTable().walk(va))
                continue;
            if (engine_.isManaged(pid, va)) {
                engine_.handleFault(ks, ts, va, XlateStatus::NotMapped,
                                    AccessType::Store);
            }
        }
    }

    // Any stage failing aborts the whole transfer: the destination's
    // partial copy is destroyed and the source keeps the authoritative
    // process — §5's "no kernel state to keep consistent" makes the
    // unwind exactly one destroyTask.
    auto abort = [&]() {
        KernelInstance &kd = kernels_(dest);
        if (kd.hasTask(pid))
            kd.destroyTask(pid);
        ks.stats().counter("process_migrations_aborted") += 1;
        ks.machine().tracer().instant(TraceCategory::Chaos,
                                      "migrate.process_aborted", src,
                                      pid, dest);
    };

    // 1. Kick-off: register state; the receiver becomes the origin.
    Message kick;
    kick.type = MsgType::ProcessMigrate;
    kick.from = src;
    kick.to = dest;
    kick.arg0 = pid;
    kick.payload.resize(migrationStateWireSize());
    serializeMigrationState(ts.state, kick.payload.data());
    if (msg_.sendReliable(kick) != Errc::Ok) {
        abort();
        return;
    }

    // 2. Every VMA.
    std::vector<Vma> vmas;
    ts.as->vmas().forEach([&](const Vma &v) { vmas.push_back(v); });
    for (const Vma &v : vmas) {
        Message vm;
        vm.type = MsgType::ProcessVma;
        vm.from = src;
        vm.to = dest;
        vm.arg0 = pid;
        vm.arg1 = v.start;
        vm.arg2 = v.end;
        vm.payload = {static_cast<std::uint8_t>(
                          (v.prot.writable ? 1 : 0) |
                          (v.prot.executable ? 2 : 0)),
                      static_cast<std::uint8_t>(v.kind)};
        if (msg_.sendReliable(vm) != Errc::Ok) {
            abort();
            return;
        }
    }

    // 3. Every resident page travels by content.
    for (const Vma &v : vmas) {
        for (Addr va = v.start; va < v.end; va += pageSize) {
            auto w = ts.as->pageTable().walk(va);
            if (!w)
                continue;
            Message pg;
            pg.type = MsgType::ProcessPage;
            pg.from = src;
            pg.to = dest;
            pg.arg0 = pid;
            pg.arg1 = va;
            pg.payload.resize(pageSize);
            ks.machine().streamAccess(src, AccessType::Load,
                                      pageBase(w->pte.frame),
                                      pageSize);
            ks.machine().memory().read(pageBase(w->pte.frame),
                                       pg.payload.data(), pageSize);
            if (msg_.sendReliable(pg) != Errc::Ok) {
                abort();
                return;
            }
        }
    }

    // 4. The source forgets the process entirely (no kernel state to
    //    keep consistent, §5).
    engine_.forgetTask(pid);
    ks.destroyTask(pid);
    setCurrentNode(pid, dest);
}

void
PopcornMigrationPolicy::onProcessMigrate(KernelInstance &k,
                                         const Message &m)
{
    Pid pid = static_cast<Pid>(m.arg0);
    if (k.hasTask(pid))
        k.destroyTask(pid);
    Task &t = k.createTask(pid, k.nodeId()); // new origin: here
    t.state = deserializeMigrationState(m.payload.data());
    k.machine().stall(k.nodeId(), transformCycles);
    k.stats().counter("process_migrations_in") += 1;
    k.machine().tracer().instant(TraceCategory::Migrate,
                                 "migrate.process_in", k.nodeId(), pid,
                                 m.from);
}

void
PopcornMigrationPolicy::onProcessVma(KernelInstance &k,
                                     const Message &m)
{
    Task &t = k.task(static_cast<Pid>(m.arg0));
    Vma v;
    v.start = m.arg1;
    v.end = m.arg2;
    v.prot.present = true;
    v.prot.user = true;
    v.prot.writable = m.payload.at(0) & 1;
    v.prot.executable = m.payload.at(0) & 2;
    v.kind = static_cast<VmaKind>(m.payload.at(1));
    bool ok = t.as->vmas().insert(v);
    panic_if(!ok, "process migration: VMA conflict");
}

void
PopcornMigrationPolicy::onProcessPage(KernelInstance &k,
                                      const Message &m)
{
    Task &t = k.task(static_cast<Pid>(m.arg0));
    Addr va = m.arg1;
    const Vma *vma = t.as->vmas().find(va);
    panic_if(!vma, "process migration: page outside every VMA");
    Addr frame = k.allocUserPage(false);
    t.ownedPages.push_back(frame);
    k.machine().memory().write(frame, m.payload.data(), pageSize);
    k.machine().streamAccess(k.nodeId(), AccessType::Store, frame,
                             pageSize);
    bool ok = t.as->mapPage(va, frame,
                            vmaPageAttrs(*vma, vma->prot.writable));
    panic_if(!ok, "process migration: duplicate page");
}

void
PopcornMigrationPolicy::onTaskMigrate(KernelInstance &k,
                                      const Message &m)
{
    Pid pid = static_cast<Pid>(m.arg0);
    NodeId origin = static_cast<NodeId>(m.arg1);
    Task *t = k.findTask(pid);
    if (!t)
        t = &k.createTask(pid, origin);
    t->state = deserializeMigrationState(m.payload.data());
    // Materialise into the destination ISA's registers.
    k.machine().stall(k.nodeId(), transformCycles);
    k.stats().counter("migrations_in") += 1;
    k.machine().tracer().instant(TraceCategory::Migrate, "migrate.in",
                                 k.nodeId(), pid, m.from);
}

} // namespace stramash

#include "stramash/dsm/dsm_engine.hh"

namespace stramash
{

namespace
{

constexpr std::uint64_t flagWrite = 1;
constexpr std::uint64_t flagAllocOnly = 2;

std::uint64_t
metaKey(Pid pid, Addr vpage)
{
    return (static_cast<std::uint64_t>(pid) << 44) ^ (vpage >> 12);
}

} // namespace

DsmEngine::DsmEngine(MessageLayer &msg, KernelLookup kernels)
    : msg_(msg), kernels_(std::move(kernels))
{
}

void
DsmEngine::installHandlers(KernelInstance &k)
{
    k.registerMsgHandler(MsgType::PageRequest,
                         [this, &k](const Message &m) {
                             onPageRequest(k, m);
                         });
    k.registerMsgHandler(MsgType::PageInvalidate,
                         [this, &k](const Message &m) {
                             onPageInvalidate(k, m);
                         });
    k.registerMsgHandler(MsgType::VmaRequest,
                         [this, &k](const Message &m) {
                             onVmaRequest(k, m);
                         });
}

DsmEngine::PageState &
DsmEngine::state(Pid pid, Addr vpage, NodeId defaultOwner)
{
    auto key = std::make_pair(pid, vpage);
    auto it = pages_.find(key);
    if (it == pages_.end())
        it = pages_.emplace(key, PageState{defaultOwner, 0}).first;
    return it->second;
}

bool
DsmEngine::isManaged(Pid pid, Addr vpage) const
{
    return pages_.count({pid, vpage}) != 0;
}

void
DsmEngine::forgetTask(Pid pid)
{
    auto it = pages_.lower_bound({pid, 0});
    while (it != pages_.end() && it->first.first == pid)
        it = pages_.erase(it);
    for (auto fit = frameIndex_.begin(); fit != frameIndex_.end();) {
        if (fit->second.first == pid)
            fit = frameIndex_.erase(fit);
        else
            ++fit;
    }
}

DsmEngine::DsmRecovery
DsmEngine::recoverDeadNode(NodeId dead, NodeId survivor,
                           const std::function<bool(Addr)> &isDeadFrame)
{
    DsmRecovery out;
    const std::uint32_t deadBit = 1u << dead;
    for (auto it = pages_.begin(); it != pages_.end();) {
        PageState &ps = it->second;
        ps.holders &= ~deadBit;
        if (ps.owner != dead) {
            ++it;
            continue;
        }
        if (ps.holders == 0) {
            // No surviving copy anywhere: the page's content died
            // with its owner. Drop the record — the next touch
            // re-faults it as a fresh anonymous page at the task's
            // (recovered) origin.
            ++out.lost;
            it = pages_.erase(it);
            continue;
        }
        // Prefer the designated survivor's copy; otherwise the lowest
        // surviving holder. A read-only copy is fine — the first
        // write after recovery upgrades it locally, as owner.
        NodeId newOwner = survivor;
        if (!(ps.holders & (1u << survivor))) {
            newOwner = 0;
            while (!(ps.holders & (1u << newOwner)))
                ++newOwner;
        }
        ps.owner = newOwner;
        ++out.reowned;
        ++it;
    }
    for (auto fit = frameIndex_.begin(); fit != frameIndex_.end();) {
        if (isDeadFrame(fit->first))
            fit = frameIndex_.erase(fit);
        else
            ++fit;
    }
    return out;
}

void
DsmEngine::indexFrame(Addr frame, Pid pid, Addr vpage)
{
    frameIndex_[pageBase(frame)] = {pid, vpage};
}

void
DsmEngine::onWriteback(NodeId node, Addr lineAddr)
{
    auto it = frameIndex_.find(pageBase(lineAddr));
    if (it == frameIndex_.end())
        return;
    auto [pid, vpage] = it->second;
    auto pit = pages_.find({pid, vpage});
    if (pit == pages_.end())
        return;
    // Only replicated pages (another node holds a copy) trigger the
    // consistency policy on write-back (paper §9.2.2).
    std::uint32_t others = pit->second.holders & ~(1u << node);
    if (others == 0)
        return;
    kernels_(node).machine().stall(node, writebackActionCycles);
    ++wbActions_;
}

void
DsmEngine::touchMeta(KernelInstance &k, Pid pid, Addr vpage,
                     AccessType type)
{
    k.machine().dataAccess(k.nodeId(), type,
                           k.dataAddrFor(metaKey(pid, vpage)), 8);
}

std::vector<std::uint8_t>
DsmEngine::readPageContent(KernelInstance &k, Task &t, Addr vpage)
{
    XlateResult x = t.as->translate(vpage, AccessType::Load);
    panic_if(x.status != XlateStatus::Ok,
             "DSM owner has no mapping to read");
    std::vector<std::uint8_t> content(pageSize);
    k.machine().streamAccess(k.nodeId(), AccessType::Load,
                             pageBase(x.pa), pageSize);
    k.machine().memory().read(pageBase(x.pa), content.data(), pageSize);
    return content;
}

void
DsmEngine::installCopy(KernelInstance &k, Task &t, Addr vpage,
                       const std::vector<std::uint8_t> &content,
                       bool writable)
{
    panic_if(content.size() != pageSize, "bad page payload");
    const Vma *vma = t.as->vmas().find(vpage);
    panic_if(!vma, "installCopy without a VMA");

    Addr frame;
    XlateResult existing = t.as->translate(vpage, AccessType::Load);
    if (existing.status == XlateStatus::Ok) {
        // Re-use the replica frame we already hold.
        frame = pageBase(existing.pa);
        t.as->protectPage(vpage, vmaPageAttrs(*vma, writable));
    } else {
        frame = k.allocUserPage(false);
        t.ownedPages.push_back(frame);
        bool ok = t.as->mapPage(vpage, frame, vmaPageAttrs(*vma, writable));
        panic_if(!ok, "installCopy: mapping already present");
    }
    indexFrame(frame, t.pid, vpage);
    k.machine().streamAccess(k.nodeId(), AccessType::Store, frame,
                             pageSize);
    k.machine().memory().write(frame, content.data(), pageSize);
    // The install writes through: the frame's memory copy *is* the
    // just-received content, so the cached lines are clean
    // (Exclusive). Only application stores re-dirty them.
    if (k.machine().config().cachePluginEnabled) {
        CacheHierarchy &hier =
            k.machine().caches().hierarchy(k.nodeId());
        for (Addr line = frame; line < frame + pageSize;
             line += cacheLineSize)
            hier.setState(line, Mesi::Exclusive);
    }
}

bool
DsmEngine::ensureVma(KernelInstance &k, Task &t, Addr va)
{
    if (t.as->vmas().find(va))
        return true;
    panic_if(t.origin == k.nodeId(),
             "origin fault outside every VMA (segfault) at 0x",
             std::hex, va);
    Message req;
    req.type = MsgType::VmaRequest;
    req.from = k.nodeId();
    req.to = t.origin;
    req.arg0 = t.pid;
    req.arg1 = va;
    auto resp = msg_.tryRpc(req, MsgType::VmaResponse);
    if (!resp) {
        k.stats().counter("dsm_vma_unreachable") += 1;
        return false;
    }
    panic_if(resp->arg1 == 0, "remote fault outside every VMA at 0x",
             std::hex, va);
    Vma vma;
    vma.start = resp->arg0;
    vma.end = resp->arg1;
    vma.prot.present = true;
    vma.prot.user = true;
    vma.prot.writable = resp->arg2 & 1;
    vma.prot.executable = resp->arg2 & 2;
    vma.kind = static_cast<VmaKind>((resp->arg2 >> 8) & 0xff);
    bool ok = t.as->vmas().insert(vma);
    panic_if(!ok, "remote VMA overlaps local tree");
    return true;
}

void
DsmEngine::onVmaRequest(KernelInstance &k, const Message &m)
{
    Task &t = k.task(static_cast<Pid>(m.arg0));
    const Vma *vma = t.as->vmas().find(m.arg1);
    // Charge the lookup (a handful of tree-node reads).
    k.machine().dataAccess(k.nodeId(), AccessType::Load,
                           k.dataAddrFor(metaKey(t.pid, m.arg1)), 64);
    Message resp;
    resp.type = MsgType::VmaResponse;
    resp.from = k.nodeId();
    resp.to = m.from;
    if (vma) {
        resp.arg0 = vma->start;
        resp.arg1 = vma->end;
        resp.arg2 = (vma->prot.writable ? 1 : 0) |
                    (vma->prot.executable ? 2 : 0) |
                    (static_cast<std::uint64_t>(vma->kind) << 8);
    }
    msg_.send(resp);
}

std::optional<Message>
DsmEngine::pageRound(KernelInstance &k, NodeId owner, Pid pid, Addr vpage,
                     std::uint64_t flags)
{
    Message req;
    req.type = MsgType::PageRequest;
    req.from = k.nodeId();
    req.to = owner;
    req.arg0 = pid;
    req.arg1 = vpage;
    req.arg2 = flags;
    auto resp = msg_.tryRpc(req, MsgType::PageResponse);
    if (!resp)
        k.stats().counter("dsm_rounds_unreachable") += 1;
    return resp;
}

void
DsmEngine::fetchPage(KernelInstance &k, Task &t, Addr vpage,
                     PageState &st, bool write)
{
    NodeId self = k.nodeId();
    auto resp = pageRound(k, st.owner, t.pid, vpage, write ? flagWrite : 0);
    if (!resp)
        return; // page unchanged; resolve() re-faults and retries
    installCopy(k, t, vpage, resp->payload, write);
    ++replicated_;
    k.machine().tracer().instant(TraceCategory::Fault,
                                 "fault.dsm_replicate", self, t.pid,
                                 vpage, st.owner);
    touchMeta(k, t.pid, vpage, AccessType::Store);
    if (write) {
        st.owner = self;
        st.holders = 1u << self;
    } else {
        st.holders |= 1u << self;
    }
}

void
DsmEngine::handleFault(KernelInstance &kernel, Task &task, Addr va,
                       XlateStatus kind, AccessType type)
{
    Addr vpage = pageBase(va);
    NodeId self = kernel.nodeId();
    std::uint32_t selfBit = 1u << self;
    Pid pid = task.pid;

    if (!ensureVma(kernel, task, va))
        return; // back out: resolve() re-faults and retries
    bool fresh = !pages_.count({pid, vpage});
    PageState &st = state(pid, vpage, task.origin);
    touchMeta(kernel, pid, vpage, AccessType::Load);
    // The Linux fault path + DSM protocol machine on the requester.
    kernel.machine().stall(self, faultCpuCycles);

    if (kind == XlateStatus::NotMapped) {
        if (st.owner == self) {
            // First touch at the owner: plain anonymous fault.
            bool ok = kernel.handleLocalAnonFault(task, va, type);
            panic_if(!ok, "anon fault outside VMA");
            st.holders |= selfBit;
            return;
        }
        // Popcorn allocates anonymous pages at the origin: a fresh
        // remote touch costs an allocation round before replication
        // (paper §6.4: "at least 2 rounds of message passing").
        if (fresh && !pageRound(kernel, st.owner, pid, vpage, flagAllocOnly))
            return; // page still unmapped; resolve() retries
        fetchPage(kernel, task, vpage, st, type == AccessType::Store);
        return;
    }

    // NoWrite: upgrade an existing read-only copy.
    panic_if(kind != XlateStatus::NoWrite, "unexpected fault kind");
    const Vma *vma = task.as->vmas().find(va);
    panic_if(!vma, "upgrade fault without VMA");
    panic_if(!vma->prot.writable,
             "write to read-only VMA at 0x", std::hex, va);

    if (st.owner != self) {
        // Someone else owns it: request write ownership (ships
        // content — the owner may have newer data than our stale read
        // copy).
        fetchPage(kernel, task, vpage, st, true);
        return;
    }
    // We own it; invalidate the other read copies. Holder bits clear
    // incrementally so an aborted round never re-counts the copies
    // already invalidated when the fault retries.
    for (NodeId n = 0; n < 32; ++n) {
        if (n == self || !(st.holders & (1u << n)))
            continue;
        Message inv;
        inv.type = MsgType::PageInvalidate;
        inv.from = self;
        inv.to = n;
        inv.arg0 = pid;
        inv.arg1 = vpage;
        if (!msg_.tryRpc(inv, MsgType::PageInvalidateAck)) {
            kernel.stats().counter("dsm_rounds_unreachable") += 1;
            return; // page stays read-only; resolve() retries
        }
        st.holders &= ~(1u << n);
        ++invalidations_;
        kernel.machine().tracer().instant(
            TraceCategory::Fault, "fault.dsm_invalidate", self, pid,
            vpage, n);
    }
    st.holders = selfBit;
    task.as->protectPage(vpage, vmaPageAttrs(*vma, true));
    touchMeta(kernel, pid, vpage, AccessType::Store);
}

void
DsmEngine::onPageRequest(KernelInstance &k, const Message &m)
{
    Pid pid = static_cast<Pid>(m.arg0);
    Addr vpage = m.arg1;
    NodeId self = k.nodeId();
    std::uint32_t selfBit = 1u << self;
    Task &t = k.task(pid);
    PageState &st = state(pid, vpage, t.origin);
    touchMeta(k, pid, vpage, AccessType::Load);
    k.machine().stall(self, faultCpuCycles);

    Message resp;
    resp.type = MsgType::PageResponse;
    resp.from = self;
    resp.to = m.from;
    resp.arg0 = pid;
    resp.arg1 = vpage;

    if (m.arg2 & flagAllocOnly) {
        // Allocation round: materialise the page at the origin.
        XlateResult x = t.as->translate(vpage, AccessType::Load);
        if (x.status != XlateStatus::Ok) {
            bool ok = k.handleLocalAnonFault(t, vpage, AccessType::Load);
            panic_if(!ok, "alloc round outside VMA");
        }
        st.holders |= selfBit;
        msg_.send(resp);
        return;
    }

    // The owner may itself have lost the mapping (it was created
    // fresh by the alloc round above, or this kernel re-gained
    // ownership without re-touching).
    XlateResult x = t.as->translate(vpage, AccessType::Load);
    if (x.status != XlateStatus::Ok) {
        bool ok = k.handleLocalAnonFault(t, vpage, AccessType::Load);
        panic_if(!ok, "owner cannot materialise page");
        st.holders |= selfBit;
    }

    resp.payload = readPageContent(k, t, vpage);
    Addr frame = pageBase(t.as->translate(vpage, AccessType::Load).pa);
    indexFrame(frame, pid, vpage);

    const Vma *vma = t.as->vmas().find(vpage);
    panic_if(!vma, "owner has mapping but no VMA");

    if (m.arg2 & flagWrite) {
        // Ownership transfer: drop our copy entirely. The frame stays
        // allocated to the task until it exits, but nothing reads it
        // again, so its host bytes go now.
        t.as->unmapPage(vpage);
        k.machine().memory().discard(frame);
        st.owner = m.from;
        st.holders = 1u << m.from;
        ++invalidations_;
    } else {
        // Keep a read-only copy alongside the new replica.
        t.as->protectPage(vpage, vmaPageAttrs(*vma, false));
        st.holders |= selfBit | (1u << m.from);
    }
    touchMeta(k, pid, vpage, AccessType::Store);
    msg_.send(resp);
}

void
DsmEngine::onPageInvalidate(KernelInstance &k, const Message &m)
{
    Pid pid = static_cast<Pid>(m.arg0);
    Addr vpage = m.arg1;
    Task *t = k.findTask(pid);
    if (t) {
        // As in an ownership transfer, the dropped replica's frame is
        // unreachable until task exit.
        XlateResult x = t->as->translate(vpage, AccessType::Load);
        t->as->unmapPage(vpage);
        if (x.status == XlateStatus::Ok)
            k.machine().memory().discard(pageBase(x.pa));
    }
    touchMeta(k, pid, vpage, AccessType::Store);

    Message ack;
    ack.type = MsgType::PageInvalidateAck;
    ack.from = k.nodeId();
    ack.to = m.from;
    ack.arg0 = pid;
    ack.arg1 = vpage;
    msg_.send(ack);
}

} // namespace stramash

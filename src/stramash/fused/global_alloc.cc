#include "stramash/fused/global_alloc.hh"

namespace stramash
{

namespace
{

/** MemBlockResponse.arg2 verdicts. */
constexpr std::uint64_t blockGranted = 0;
constexpr std::uint64_t blockDenied = 1;
constexpr std::uint64_t blockNoMemory = 2;

/** Instructions of per-page isolation work (offline pass). */
constexpr ICount kOfflinePerPageInst = 160;
/** Instructions of per-page metadata init (online pass). */
constexpr ICount kOnlinePerPageInst = 60;

} // namespace

GlobalMemoryAllocator::GlobalMemoryAllocator(
    Machine &machine, MessageLayer &msg,
    std::vector<KernelInstance *> kernels, GmaConfig cfg,
    const std::vector<AddrRange> &excluded)
    : machine_(machine),
      kernels_(std::move(kernels)),
      cfg_(cfg),
      stats_("gma"),
      msg_(msg)
{
    for (auto *k : kernels_) {
        k->registerMsgHandler(MsgType::MemBlockRequest,
                              [this, k](const Message &m) {
                                  onMemBlockRequest(*k, m);
                              });
    }
    panic_if(cfg_.blockSize < 32 * 1024 * 1024 ||
                 cfg_.blockSize > Addr{4} * 1024 * 1024 * 1024,
             "block size outside the 32 MiB - 4 GiB range");
    IntervalSet pool;
    for (const auto &r : machine_.physMap().poolRanges())
        pool.insert(r);
    for (const auto &r : excluded) {
        if (!r.empty())
            pool.erase(r.start, r.end);
    }
    for (const auto &r : pool.extents())
        addPoolRange(r);
}

void
GlobalMemoryAllocator::addPoolRange(const AddrRange &r)
{
    for (Addr b = r.start; b + cfg_.blockSize <= r.end;
         b += cfg_.blockSize) {
        blocks_.emplace(
            b, std::make_pair(AddrRange{b, b + cfg_.blockSize},
                              invalidNode));
    }
}

std::size_t
GlobalMemoryAllocator::freeBlocks() const
{
    std::size_t n = 0;
    for (const auto &kv : blocks_) {
        if (kv.second.second == invalidNode)
            ++n;
    }
    return n;
}

std::size_t
GlobalMemoryAllocator::blocksOwnedBy(NodeId node) const
{
    std::size_t n = 0;
    for (const auto &kv : blocks_) {
        if (kv.second.second == node)
            ++n;
    }
    return n;
}

std::vector<AddrRange>
GlobalMemoryAllocator::ownedBlocks(NodeId node) const
{
    std::vector<AddrRange> out;
    for (const auto &kv : blocks_) {
        if (kv.second.second == node)
            out.push_back(kv.second.first);
    }
    return out;
}

void
GlobalMemoryAllocator::chargePagePass(KernelInstance &k, Addr pa,
                                      bool store, ICount inst)
{
    // struct-page metadata access in the kernel's data region...
    machine_.dataAccess(k.nodeId(),
                        store ? AccessType::Store : AccessType::Load,
                        k.dataAddrFor(pa >> pageShift), 64);
    if (!store) {
        // The offline isolation pass also rewrites the page state
        // (reserved/isolated flags) on a second metadata line — this
        // is why offlining dominates (§9.2.7, Table 4).
        machine_.dataAccess(k.nodeId(), AccessType::Store,
                            k.dataAddrFor((pa >> pageShift) ^
                                          0x150147eULL), 64);
    }
    // ...plus the fixed per-page bookkeeping work.
    machine_.retire(k.nodeId(), inst);
}

Cycles
GlobalMemoryAllocator::onlineBlock(KernelInstance &kernel,
                                   const AddrRange &block)
{
    auto it = blocks_.find(block.start);
    panic_if(it == blocks_.end(), "onlining an unknown block");
    panic_if(it->second.second != invalidNode,
             "onlining a block owned by node ", it->second.second);

    Cycles before = machine_.node(kernel.nodeId()).cycles();
    STRAMASH_TRACE_SPAN(machine_.tracer(), TraceCategory::Alloc,
                        "gma.online", kernel.nodeId(), 0, block.start,
                        block.end - block.start);
    for (Addr pa = block.start; pa < block.end; pa += pageSize)
        chargePagePass(kernel, pa, true, kOnlinePerPageInst);
    kernel.palloc().addRange(block);
    it->second.second = kernel.nodeId();
    stats_.counter("blocks_onlined") += 1;
    return machine_.node(kernel.nodeId()).cycles() - before;
}

Cycles
GlobalMemoryAllocator::offlineBlock(KernelInstance &kernel,
                                    const AddrRange &block,
                                    const RemapFn &remap)
{
    auto it = blocks_.find(block.start);
    panic_if(it == blocks_.end(), "offlining an unknown block");
    panic_if(it->second.second != kernel.nodeId(),
             "offlining a block this kernel does not own");

    Cycles before = machine_.node(kernel.nodeId()).cycles();
    STRAMASH_TRACE_SPAN(machine_.tracer(), TraceCategory::Alloc,
                        "gma.offline", kernel.nodeId(), 0, block.start,
                        block.end - block.start);

    // Evacuation: move live frames out of the block (paper §6.3:
    // "it first evacuates the memory block and then isolates the
    // pages").
    auto live = kernel.palloc().allocatedIn(block);
    if (!live.empty()) {
        if (!remap)
            return 0;
        for (Addr oldPa : live) {
            // The replacement frame must come from outside the block
            // being withdrawn; retry a bounded number of times.
            std::vector<Addr> inBlock;
            Addr newPa = 0;
            for (int tries = 0; tries < 64; ++tries) {
                Addr cand = kernel.allocUserPage(false);
                if (!block.contains(cand)) {
                    newPa = cand;
                    break;
                }
                inBlock.push_back(cand);
            }
            for (Addr p : inBlock)
                kernel.freeUserPage(p);
            panic_if(!newPa, "no frame outside the offlining block");
            machine_.memory().copy(newPa, oldPa, pageSize);
            machine_.streamAccess(kernel.nodeId(), AccessType::Load,
                                  oldPa, pageSize);
            machine_.streamAccess(kernel.nodeId(), AccessType::Store,
                                  newPa, pageSize);
            remap(oldPa, newPa);
            kernel.freeUserPage(oldPa);
            stats_.counter("pages_evacuated") += 1;
        }
    }

    // Isolation pass over every page in the block.
    for (Addr pa = block.start; pa < block.end; pa += pageSize)
        chargePagePass(kernel, pa, false, kOfflinePerPageInst);

    bool ok = kernel.palloc().removeRange(block);
    panic_if(!ok, "offline failed after evacuation");
    it->second.second = invalidNode;
    stats_.counter("blocks_offlined") += 1;
    return machine_.node(kernel.nodeId()).cycles() - before;
}

void
GlobalMemoryAllocator::onMemBlockRequest(KernelInstance &k,
                                         const Message &m)
{
    Message resp;
    resp.type = MsgType::MemBlockResponse;
    resp.from = k.nodeId();
    resp.to = m.from;

    FaultInjector *fi = machine_.faultInjector();
    if (fi && fi->shouldDenyMemBlock(k.nodeId())) {
        // Transient refusal (the donor is "busy"): the requester
        // backs off and asks again.
        stats_.counter("negotiations_denied") += 1;
        resp.arg2 = blockDenied;
        msg_.send(resp);
        return;
    }

    for (const auto &block : ownedBlocks(k.nodeId())) {
        if (!k.palloc().allocatedIn(block).empty())
            continue;
        if (offlineBlock(k, block) == 0)
            continue;
        resp.arg0 = block.start;
        resp.arg1 = block.end;
        resp.arg2 = blockGranted;
        msg_.send(resp);
        return;
    }
    resp.arg2 = blockNoMemory;
    msg_.send(resp);
}

std::size_t
GlobalMemoryAllocator::reclaimDeadNode(NodeId dead)
{
    // Ownership recovery after a crash: every block the dead kernel
    // had onlined returns to the global pool. Its allocator state is
    // gone with it — no evacuation, no isolation pass; the survivor's
    // frame sweep has already copied out anything it still needs.
    std::size_t reclaimed = 0;
    for (auto &kv : blocks_) {
        if (kv.second.second != dead)
            continue;
        kv.second.second = invalidNode;
        ++reclaimed;
    }
    if (reclaimed) {
        stats_.counter("blocks_reclaimed") +=
            static_cast<std::int64_t>(reclaimed);
        machine_.tracer().instant(TraceCategory::Chaos, "gma.reclaim",
                                  dead, 0, reclaimed, dead);
    }
    return reclaimed;
}

Result<AddrRange>
GlobalMemoryAllocator::requestBlockFrom(KernelInstance &kernel,
                                        KernelInstance &donor)
{
    Message req;
    req.type = MsgType::MemBlockRequest;
    req.from = kernel.nodeId();
    req.to = donor.nodeId();
    auto resp = msg_.tryRpc(req, MsgType::MemBlockResponse);
    if (!resp)
        return Errc::Unreachable;
    switch (resp->arg2) {
      case blockGranted:
        return AddrRange{resp->arg0, resp->arg1};
      case blockDenied:
        return Errc::Denied;
      case blockNoMemory:
        return Errc::NoMemory;
    }
    panic("bad MemBlockResponse verdict ", resp->arg2);
}

bool
GlobalMemoryAllocator::onLowMemory(KernelInstance &kernel)
{
    // A free block is assigned directly.
    for (auto &kv : blocks_) {
        if (kv.second.second == invalidNode) {
            onlineBlock(kernel, kv.second.first);
            return true;
        }
    }

    // Otherwise evict from another kernel until pressure balances
    // (paper §6.3).
    double myPressure = kernel.palloc().pressure();
    KernelInstance *donor = nullptr;
    for (auto *k : kernels_) {
        if (k->nodeId() == kernel.nodeId())
            continue;
        // A crashed kernel cannot negotiate; its blocks come back to
        // the pool through reclaimDeadNode(), not eviction.
        if (!machine_.nodeAlive(k->nodeId()))
            continue;
        if (k->palloc().pressure() < myPressure &&
            (!donor || k->palloc().pressure() <
                           donor->palloc().pressure())) {
            donor = k;
        }
    }
    if (!donor)
        return false;

    // Negotiation over messages: transient refusals and lost
    // messages are retried with exponential backoff before the
    // kernel degrades to local memory only.
    unsigned attempts =
        machine_.faultInjector() ? RpcPolicy::maxAttempts : 1;
    for (unsigned attempt = 1; attempt <= attempts; ++attempt) {
        if (attempt > 1) {
            stats_.counter("negotiation_retries") += 1;
            machine_.stall(kernel.nodeId(),
                           RpcPolicy::backoffForAttempt(attempt - 1));
        }
        Result<AddrRange> got = requestBlockFrom(kernel, *donor);
        if (got.ok()) {
            onlineBlock(kernel, got.value());
            stats_.counter("blocks_migrated") += 1;
            return true;
        }
        if (got.error() == Errc::NoMemory) {
            // Permanent for this donor: nothing it can release.
            break;
        }
    }
    stats_.counter("degraded_local") += 1;
    machine_.tracer().instant(TraceCategory::Chaos,
                              "gma.degraded_local", kernel.nodeId(), 0,
                              donor->nodeId());
    return false;
}

} // namespace stramash

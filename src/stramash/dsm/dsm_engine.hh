/**
 * @file
 * The software DSM page-coherence engine — Popcorn-Linux's mechanism
 * for providing a single application address space across
 * shared-nothing kernels (paper §2, §6.4, §9.2.3).
 *
 * Home-based write-invalidate protocol at page granularity:
 *
 *  - every page has an owner (initially the task's origin kernel);
 *  - a read fault replicates the page: the owner downgrades to
 *    read-only and ships the 4 KiB content; the requester maps a
 *    local copy (the "Replicated Pages" of Table 3);
 *  - a write fault (or upgrade) invalidates every other copy and
 *    transfers ownership;
 *  - first touch of an anonymous page at a non-origin kernel costs
 *    two message rounds — allocation at the origin, then replication
 *    — exactly as the paper describes Popcorn's behaviour.
 *
 * The engine is the Popcorn design's fault handler. Popcorn's process
 * migration also drives it directly, to pull pages home before the
 * transfer. The Stramash policies do not use it: their slow-path
 * faults (upper page-table level missing, §9.2.3) take one
 * RemoteFaultRequest round to the origin instead.
 */

#ifndef STRAMASH_DSM_DSM_ENGINE_HH
#define STRAMASH_DSM_DSM_ENGINE_HH

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "stramash/kernel/kernel.hh"

namespace stramash
{

/** Resolve a node id to its kernel instance. */
using KernelLookup = std::function<KernelInstance &(NodeId)>;

class DsmEngine final : public FaultHandler
{
  public:
    DsmEngine(MessageLayer &msg, KernelLookup kernels);

    /** Register the protocol's message handlers on a kernel. */
    void installHandlers(KernelInstance &k);

    /**
     * Resolve a DSM fault raised at @p kernel. Covers NotMapped
     * (fetch/replicate) and NoWrite (upgrade/invalidate).
     *
     * Under fault injection a protocol round can exhaust its retry
     * budget; the engine then returns with the page still unmapped
     * (coherence metadata untouched or safely partial) and the
     * architectural retry loop in KernelInstance::resolve re-faults.
     */
    void handleFault(KernelInstance &kernel, Task &task, Addr va,
                     XlateStatus kind, AccessType type) override;

    /** Drops the task's page metadata (forgetTask). */
    void
    onTaskExit(KernelInstance &kernel, Task &task) override
    {
        (void)kernel;
        forgetTask(task.pid);
    }

    /** True if this (pid, page) is under DSM management. */
    bool isManaged(Pid pid, Addr vpage) const;

    /**
     * CPU cost of one traversal of the Linux fault path plus the DSM
     * protocol state machine, charged at the faulting kernel and at
     * the owner serving the request.
     */
    static constexpr Cycles faultCpuCycles = 8000;

    /** Pages whose content was copied across kernels (Table 3). */
    std::uint64_t replicatedPages() const { return replicated_; }

    /** Invalidation rounds performed (write upgrades). */
    std::uint64_t invalidations() const { return invalidations_; }

    void
    resetCounters()
    {
        replicated_ = 0;
        invalidations_ = 0;
    }

    /** Drop all metadata for an exiting task. */
    void forgetTask(Pid pid);

    /** Outcome of a crash-recovery ownership sweep. */
    struct DsmRecovery
    {
        /** Pages whose ownership moved to a surviving holder. */
        std::uint64_t reowned = 0;
        /** Pages with no surviving copy: metadata dropped; a later
         *  touch re-faults them as fresh (zero-filled) pages — the
         *  honest shared-nothing data-loss semantics. */
        std::uint64_t lost = 0;
    };

    /**
     * Crash recovery: walk every page record, strip the dead node
     * from the holder sets, and re-assign ownership of pages the
     * dead node owned — to @p survivor when it holds a copy, to the
     * lowest surviving holder otherwise, or drop the record when no
     * copy survives. Frame-index entries whose frame satisfies
     * @p isDeadFrame (frames in the dead node's memory) are purged.
     */
    DsmRecovery recoverDeadNode(
        NodeId dead, NodeId survivor,
        const std::function<bool(Addr)> &isDeadFrame);

    /**
     * Cache write-back interplay (§9.2.2): a dirty line leaving a
     * node's LLC that belongs to a replicated page (another node
     * holds a copy) triggers the DSM consistency policy. Wired to
     * CoherenceDomain's writeback hook by the System.
     */
    void onWriteback(NodeId node, Addr lineAddr);

    /** Cost of one writeback-triggered consistency action. */
    static constexpr Cycles writebackActionCycles = 2000;

    std::uint64_t writebackActions() const { return wbActions_; }

  private:
    struct PageState
    {
        NodeId owner;
        /** Nodes holding a (read-only or owning) copy. */
        std::uint32_t holders;
    };

    MessageLayer &msg_;
    KernelLookup kernels_;
    /** (pid, vpage) -> coherence state. Mutated only inside message
     *  handlers / the faulting kernel's code path. */
    std::map<std::pair<Pid, Addr>, PageState> pages_;
    /** Physical frame -> (pid, vpage) for every frame backing a
     *  DSM-managed page on any node (writeback interplay). */
    std::unordered_map<Addr, std::pair<Pid, Addr>> frameIndex_;
    std::uint64_t replicated_ = 0;
    std::uint64_t invalidations_ = 0;
    std::uint64_t wbActions_ = 0;

    void indexFrame(Addr frame, Pid pid, Addr vpage);

    PageState &state(Pid pid, Addr vpage, NodeId defaultOwner);

    /**
     * One PageRequest round to @p owner for (pid, vpage) with
     * @p flags; counts a round that gives up.
     * @return the response, or nullopt when the owner was unreachable.
     */
    std::optional<Message> pageRound(KernelInstance &k, NodeId owner,
                                     Pid pid, Addr vpage,
                                     std::uint64_t flags);

    /**
     * Fetch the page from its owner @p st.owner: a page round (write
     * ownership when @p write), install the copy, then take ownership
     * (@p write) or join the holders. Returns early, leaving @p st as
     * it was, when the owner cannot be reached.
     */
    void fetchPage(KernelInstance &k, Task &t, Addr vpage, PageState &st,
                   bool write);

    /** Charge @p kernel a metadata access for (pid, vpage). */
    void touchMeta(KernelInstance &k, Pid pid, Addr vpage,
                   AccessType type);

    // Message handlers (run on the receiving kernel).
    void onPageRequest(KernelInstance &k, const Message &m);
    void onPageInvalidate(KernelInstance &k, const Message &m);

    /** Ship 4 KiB of page content out of @p k's mapping. */
    std::vector<std::uint8_t> readPageContent(KernelInstance &k,
                                              Task &t, Addr vpage);

    /** Install @p content into a local frame for (task, vpage). */
    void installCopy(KernelInstance &k, Task &t, Addr vpage,
                     const std::vector<std::uint8_t> &content,
                     bool writable);

    /**
     * Ensure the requester knows the VMA covering @p va.
     * @return false if the origin could not be reached (the caller
     *         must back out and let the fault retry).
     */
    bool ensureVma(KernelInstance &k, Task &t, Addr va);

    void onVmaRequest(KernelInstance &k, const Message &m);
};

} // namespace stramash

#endif // STRAMASH_DSM_DSM_ENGINE_HH

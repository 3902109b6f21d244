/**
 * @file
 * The global physical memory allocator (paper §6.3, Table 4).
 *
 * Shared memory is kept in a global pool of fixed-size blocks
 * (32 MiB - 4 GiB, configurable). Each kernel boots with minimal
 * resources; when a kernel's memory pressure passes 70% it requests
 * a block. Free blocks are assigned directly; otherwise the allocator
 * evicts a block from the least-pressured other kernel (evacuating
 * its pages first) until pressure is balanced.
 *
 * Online/offline follow the Linux memory hot-plug shape the paper
 * extends: onlining walks the block initialising per-page metadata;
 * offlining first evacuates live frames, then isolates every page —
 * the isolation pass dominates, exactly as §9.2.7 observes.
 */

#ifndef STRAMASH_FUSED_GLOBAL_ALLOC_HH
#define STRAMASH_FUSED_GLOBAL_ALLOC_HH

#include <functional>
#include <map>
#include <vector>

#include "stramash/kernel/kernel.hh"

namespace stramash
{

/** Tuning knobs for the global allocator. */
struct GmaConfig
{
    Addr blockSize = 256 * 1024 * 1024;
};

/** Remap callback for evacuation: (old frame, new frame). */
using RemapFn = std::function<void(Addr, Addr)>;

class GlobalMemoryAllocator
{
  public:
    /**
     * @param msg the layer inter-kernel block hand-offs are negotiated
     *        over (MemBlockRequest / MemBlockResponse messages, which
     *        can time out, be denied by a fault plan, and be retried
     *        with backoff); each kernel's pump must be registered on
     *        it.
     * @param excluded ranges inside the pool that must not become
     *        blocks (e.g. the messaging area).
     */
    GlobalMemoryAllocator(Machine &machine, MessageLayer &msg,
                          std::vector<KernelInstance *> kernels,
                          GmaConfig cfg = {},
                          const std::vector<AddrRange> &excluded = {});

    /** Donate pool memory (defaults to the phys map's pool ranges). */
    void addPoolRange(const AddrRange &r);

    std::size_t freeBlocks() const;
    std::size_t blocksOwnedBy(NodeId node) const;
    const GmaConfig &config() const { return cfg_; }

    /**
     * Low-memory entry point (wired as each kernel's hook): try to
     * grow @p kernel by one block. Free blocks are assigned
     * directly. Occupied blocks are negotiated away from the least-
     * pressured donor kernel; a transiently denied or timed-out
     * negotiation is retried with exponential backoff, and after the
     * attempt budget the caller degrades to whatever local memory it
     * still has (`gma.degraded_local`).
     * @return true if a block was onlined.
     */
    bool onLowMemory(KernelInstance &kernel);

    /**
     * One negotiation round with @p donor: ask it to evacuate and
     * release one block.
     * @return the freed block, Errc::Denied (transient refusal),
     *         Errc::NoMemory (donor has no releasable block), or
     *         Errc::Unreachable (messaging gave up).
     */
    Result<AddrRange> requestBlockFrom(KernelInstance &kernel,
                                       KernelInstance &donor);

    /**
     * Online one block into @p kernel's allocator.
     * @return the cycles charged for the online pass.
     */
    Cycles onlineBlock(KernelInstance &kernel, const AddrRange &block);

    /**
     * Offline a block from @p kernel: evacuate live frames (via
     * @p remap, which must repoint page tables), then isolate.
     * @return the cycles charged, or 0 if the block could not be
     *         offlined (live frames and no remap callback).
     */
    Cycles offlineBlock(KernelInstance &kernel, const AddrRange &block,
                        const RemapFn &remap = nullptr);

    /** Blocks currently assigned to @p node. */
    std::vector<AddrRange> ownedBlocks(NodeId node) const;

    /**
     * Crash recovery: return every block owned by the crashed node
     * @p dead to the free pool. The dead kernel's allocator is not
     * consulted (it no longer exists); callers must have finished
     * copying any frames they still need out of these blocks.
     * @return the number of blocks reclaimed.
     */
    std::size_t reclaimDeadNode(NodeId dead);

    StatGroup &stats() { return stats_; }

  private:
    Machine &machine_;
    std::vector<KernelInstance *> kernels_;
    GmaConfig cfg_;
    StatGroup stats_;
    MessageLayer &msg_;

    /** block start -> owner (invalidNode = free). */
    std::map<Addr, std::pair<AddrRange, NodeId>> blocks_;

    /** Donor-side MemBlockRequest service. */
    void onMemBlockRequest(KernelInstance &k, const Message &m);

    /** Charge one per-page metadata access + fixed work. */
    void chargePagePass(KernelInstance &k, Addr pa, bool store,
                        ICount inst);
};

} // namespace stramash

#endif // STRAMASH_FUSED_GLOBAL_ALLOC_HH

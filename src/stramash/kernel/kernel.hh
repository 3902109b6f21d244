/**
 * @file
 * One kernel instance: the design-neutral core each OS policy builds
 * on. Owns the node's physical allocator, its kernel data region in
 * guest memory, the task table, the futex table, and the user memory
 * access path (translate -> fault -> cache-charged data access).
 */

#ifndef STRAMASH_KERNEL_KERNEL_HH
#define STRAMASH_KERNEL_KERNEL_HH

#include <cstring>
#include <functional>
#include <map>

#include "stramash/kernel/futex.hh"
#include "stramash/kernel/namespaces.hh"
#include "stramash/kernel/phys_alloc.hh"
#include "stramash/kernel/policy.hh"
#include "stramash/kernel/remote_guard.hh"
#include "stramash/msg/transport.hh"

namespace stramash
{

class KernelInstance
{
  public:
    /**
     * @param reserved guest ranges the kernel must not allocate from
     *        (e.g. the messaging area).
     */
    KernelInstance(Machine &machine, NodeId node, MessageLayer &msg,
                   const std::vector<AddrRange> &reserved = {});

    KernelInstance(const KernelInstance &) = delete;
    KernelInstance &operator=(const KernelInstance &) = delete;

    NodeId nodeId() const { return node_; }
    IsaType isa() const { return isa_; }
    /** Instructions one user memory access retires: the ISA's
     *  expansion, truncated, and at least one. */
    ICount accessInstructions() const { return accessInstructions_; }
    Machine &machine() { return machine_; }
    MessageLayer &msg() { return msg_; }
    PhysAllocator &palloc() { return palloc_; }
    FutexTable &futexTable() { return futexes_; }
    NamespaceSet &namespaces() { return namespaces_; }
    StatGroup &stats() { return stats_; }

    // ------------------------------------------------------------
    // Kernel data region: guest addresses for kernel structures, so
    // remote access to them is charged real (possibly remote) memory
    // latency.
    // ------------------------------------------------------------

    /** Bump-allocate a guest area for a kernel structure. */
    Addr allocDataArea(Addr bytes);

    /** Stable pseudo-address for a keyed structure (hash table
     *  buckets, futex queue heads, VMA nodes...). */
    Addr dataAddrFor(std::uint64_t key) const;

    // ------------------------------------------------------------
    // Task management
    // ------------------------------------------------------------

    /** Create this kernel's record (and address space) for a task. */
    Task &createTask(Pid pid, NodeId origin);

    Task *findTask(Pid pid);
    Task &task(Pid pid);
    bool hasTask(Pid pid) const { return tasks_.count(pid) != 0; }

    /** Tear down the task on this kernel (policy hook runs first). */
    void destroyTask(Pid pid);

    /** Visit every task record this kernel holds. */
    void forEachTask(const std::function<void(Task &)> &fn);

    /**
     * Reboot this kernel instance for the hot-plug rejoin path: every
     * task record, futex queue and allocation is discarded and the
     * boot-time memory layout restored, as a freshly booted kernel
     * would rediscover it from the firmware map. Policy exit hooks do
     * NOT run — the node crashed; recovery already dealt with shared
     * state.
     */
    void resetForRejoin();

    // ------------------------------------------------------------
    // Physical pages
    // ------------------------------------------------------------

    /**
     * Allocate a user page from this kernel's memory; invokes the
     * low-memory hook (global allocator) under pressure.
     * @param zero when true, the page is zeroed and the zeroing
     *        stores are charged to this node.
     */
    Addr allocUserPage(bool zero);
    void freeUserPage(Addr pa);

    /** Low-memory hook: invoked when pressure crosses the 70%
     *  threshold or allocation fails (paper §6.3). Returns true if
     *  more memory was made available. */
    void
    setLowMemoryHook(std::function<bool(KernelInstance &)> hook)
    {
        lowMem_ = std::move(hook);
    }

    // ------------------------------------------------------------
    // User memory access (the workload-facing path)
    // ------------------------------------------------------------

    /** Read user memory, faulting pages in as needed. */
    void userRead(Task &t, Addr va, void *dst, std::size_t size);

    /** Write user memory, faulting pages in as needed. */
    void userWrite(Task &t, Addr va, const void *src, std::size_t size);

    // The typed accessors copy with a size known at compile time, so
    // a word moves with one host load or store.

    template <typename T>
    T
    userLoad(Task &t, Addr va)
    {
        T v;
        if (pageOffset(va) + sizeof(T) > pageSize)
            userRead(t, va, &v, sizeof(T));
        else
            copyOut(userAccess(t, va, AccessType::Load, sizeof(T)), &v,
                    sizeof(T));
        return v;
    }

    template <typename T>
    void
    userStore(Task &t, Addr va, const T &v)
    {
        if (pageOffset(va) + sizeof(T) > pageSize)
            userWrite(t, va, &v, sizeof(T));
        else
            copyIn(userAccess(t, va, AccessType::Store, sizeof(T)), &v,
                   sizeof(T));
    }

    /**
     * Atomic read-modify-write on a user word (LSE-style CAS,
     * paper §6.5). Charges a store access (exclusive ownership).
     * @return the old value.
     */
    std::uint32_t userCas(Task &t, Addr va, std::uint32_t expected,
                          std::uint32_t desired, bool &success);

    /** Atomic fetch-add on a user word. */
    std::uint32_t userFetchAdd(Task &t, Addr va, std::uint32_t delta);

    // ------------------------------------------------------------
    // Policies and messaging
    // ------------------------------------------------------------

    void setFaultHandler(FaultHandler *h) { faultHandler_ = h; }

    /**
     * Attach the remote kernel-memory guard and expose this kernel's
     * legitimately-shared extents (the kernel data region; page-table
     * frames register dynamically as they are allocated).
     */
    void attachGuard(RemoteAccessGuard *guard);
    RemoteAccessGuard *guard() { return guard_; }

    /**
     * A *cross-kernel* access to memory owned by @p owner, performed
     * by this kernel's fused accessor functions (remote walkers, lock
     * words, futex buckets, the migration mailbox). Consults the
     * guard, then charges the access like any other.
     */
    Cycles remoteAccess(NodeId owner, AccessType type, Addr addr,
                        unsigned size);

    /** Register a handler for one message type. */
    void registerMsgHandler(MsgType type,
                            std::function<void(const Message &)> fn);

    /** The master pump System registers with the message layer. */
    void pump(const Message &msg);

    /**
     * Design-neutral local anonymous fault: valid when this kernel
     * is the task's origin (or fully owns the page). Allocates and
     * maps a zeroed page if @p va falls in a mapped VMA.
     * @return false if @p va is outside every VMA (segfault).
     */
    bool handleLocalAnonFault(Task &t, Addr va, AccessType type);

    /** Translate @p va, invoking the fault handler as needed; the
     *  result's status is always Ok. */
    XlateResult resolve(Task &t, Addr va, AccessType type);

  private:
    /**
     * Resolve one user access of @p size bytes at @p va and charge it.
     * The result's host is the bytes to copy through, or nullptr when
     * the access must go through GuestMemory at its pa instead: the
     * frame is not materialised (it reads as zero; a write allocates
     * it), the access runs past the frame, or charging it discarded
     * frames, as a DSM write-back can.
     */
    XlateResult userAccess(Task &t, Addr va, AccessType type,
                           unsigned size);

    /** Copy the bytes of a userAccess() out: through its host bytes,
     *  else through GuestMemory. */
    void
    copyOut(const XlateResult &x, void *dst, std::size_t size)
    {
        if (x.host)
            std::memcpy(dst, x.host, size);
        else
            machine_.memory().read(x.pa, dst, size);
    }

    /** Copy bytes into a userAccess(), the same way. */
    void
    copyIn(const XlateResult &x, const void *src, std::size_t size)
    {
        if (x.host)
            std::memcpy(x.host, src, size);
        else
            machine_.memory().write(x.pa, src, size);
    }

    Machine &machine_;
    NodeId node_;
    IsaType isa_;
    ICount accessInstructions_;
    MessageLayer &msg_;
    StatGroup stats_;
    PhysAllocator palloc_;
    FutexTable futexes_;
    NamespaceSet namespaces_;
    std::map<Pid, std::unique_ptr<Task>> tasks_;
    FaultHandler *faultHandler_ = nullptr;
    RemoteAccessGuard *guard_ = nullptr;
    std::function<bool(KernelInstance &)> lowMem_;
    std::map<MsgType, std::function<void(const Message &)>> msgHandlers_;

    AddrRange dataRegion_{0, 0};
    Addr dataBump_ = 0;
    Addr dataHashBase_ = 0;
    Addr dataHashSize_ = 0;
    /** The allocator ranges discovered at boot (after the data-region
     *  carve) — what a rejoining kernel re-discovers. */
    std::vector<AddrRange> bootExtents_;

    /** Size of the per-kernel data region carved at boot. */
    static constexpr Addr dataRegionBytes = 64 * 1024 * 1024;
    /** Leading part of the region served by allocDataArea(). */
    static constexpr Addr dataBumpBytes = 8 * 1024 * 1024;
};

/**
 * Tear @p pid down on kernels 0..@p nodes-1: destroy every task
 * record it has and free the frames it borrowed from other kernels'
 * allocators to their homes, skipping homes @p takesFrames rejects.
 * The borrowed frames are collected before any record goes.
 */
void destroyTaskEverywhere(
    const std::function<KernelInstance &(NodeId)> &kernel,
    std::size_t nodes, Pid pid,
    const std::function<bool(NodeId)> &takesFrames);

} // namespace stramash

#endif // STRAMASH_KERNEL_KERNEL_HH

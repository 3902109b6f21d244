/**
 * @file
 * A migratable single-threaded application, compiled (conceptually)
 * with the Popcorn toolchain: one virtual address layout valid on
 * both ISAs, migration points at call boundaries, and state
 * transformation handled by the OS migration service.
 *
 * All data accesses go through the current kernel's user-access path
 * — translation, demand faults, cache/coherence charging — and land
 * in real guest memory, so workloads compute real answers while the
 * timing model runs underneath.
 */

#ifndef STRAMASH_CORE_APP_HH
#define STRAMASH_CORE_APP_HH

#include "stramash/core/system.hh"

namespace stramash
{

class App
{
  public:
    /** Standard layout bases (identical on both ISAs). */
    static constexpr Addr heapBase = 0x0000100000000000ULL;
    static constexpr Addr stackTop = 0x00007ffffffff000ULL;
    static constexpr Addr stackBytes = 8 * 1024 * 1024;

    App(System &sys, NodeId origin);

    /** Spawn at a policy-chosen origin (System::placeNode). With no
     *  Placer attached this honours the pin hint / defaults to node
     *  0, so scheduler-less code keeps its hand-placed behaviour. */
    App(System &sys, const PlacementHints &hints);

    ~App();

    App(const App &) = delete;
    App &operator=(const App &) = delete;

    Pid pid() const { return pid_; }
    NodeId where() const { return sys_.whereIs(pid_); }
    System &system() { return sys_; }

    /** Map an anonymous region; returns its base address. */
    Addr mmap(Addr bytes, bool writable = true,
              VmaKind kind = VmaKind::Anon,
              const std::string &name = "anon");

    /** Migrate to @p dest (no-op if already there). */
    void migrate(NodeId dest);

    /**
     * Migrate to the next alive node in cyclic node order. On the
     * paper pair this is exactly "the other node"; on an N-node
     * machine the task round-robins across the topology.
     * @return the destination node.
     */
    NodeId migrateToNext();

    // ---- memory access (charged, faulting, real data) ----

    template <typename T>
    T
    read(Addr va)
    {
        Current c = beginAccess();
        return c.kernel.userLoad<T>(c.task, va);
    }

    template <typename T>
    void
    write(Addr va, const T &v)
    {
        Current c = beginAccess();
        c.kernel.userStore<T>(c.task, va, v);
    }

    void readBuf(Addr va, void *dst, std::size_t size);
    void writeBuf(Addr va, const void *src, std::size_t size);

    /** Retire @p units of non-memory work (ISA-expanded). */
    void compute(std::uint64_t units);

    // ---- synchronisation ----

    bool futexWait(Addr uaddr, std::uint32_t expected);
    unsigned futexWake(Addr uaddr, unsigned count = 1);
    std::uint32_t fetchAdd(Addr uaddr, std::uint32_t delta);
    bool cas(Addr uaddr, std::uint32_t expected, std::uint32_t desired);

    /** Where the task runs right now: its kernel and its task
     *  record there. */
    struct Current
    {
        KernelInstance &kernel;
        Task &task;
    };

    /** Resolve the hosting kernel and task. Every user-level
     *  operation funnels through here once, which is where the crash
     *  guard hooks in: if this task's kernel has died, detection and
     *  recovery run before the operation proceeds. The binding is
     *  cached until the machine's placement epoch moves. */
    Current
    current()
    {
        sys_.noteUserOp(pid_);
        if (boundEpoch_ != sys_.machine().placementEpoch())
            rebind();
        return {*kernel_, *task_};
    }
    KernelInstance &currentKernel() { return current().kernel; }
    Task &currentTask() { return current().task; }

  private:
    System &sys_;
    Pid pid_;
    NodeId origin_;
    Addr mmapCursor_ = heapBase;
    /** current()'s cached binding, valid at placement epoch
     *  boundEpoch_. */
    KernelInstance *kernel_ = nullptr;
    Task *task_ = nullptr;
    std::uint64_t boundEpoch_ = 0;

    /** Look the binding up: the policy's location record, then that
     *  kernel's task table. */
    void rebind();

    /** current(), plus the instructions a memory access retires. */
    Current
    beginAccess()
    {
        Current c = current();
        c.kernel.machine().retire(c.kernel.nodeId(),
                                  c.kernel.accessInstructions());
        return c;
    }
};

} // namespace stramash

#endif // STRAMASH_CORE_APP_HH

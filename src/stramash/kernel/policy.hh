/**
 * @file
 * The OS-design policy interfaces. The kernel core is design-neutral;
 * dsm/ plugs in the Popcorn (multiple-kernel, shared-nothing)
 * policies and fused/ plugs in the Stramash (fused-kernel,
 * shared-mostly) policies.
 */

#ifndef STRAMASH_KERNEL_POLICY_HH
#define STRAMASH_KERNEL_POLICY_HH

#include <functional>
#include <map>

#include "stramash/common/logging.hh"
#include "stramash/kernel/address_space.hh"
#include "stramash/kernel/task.hh"
#include "stramash/sim/machine.hh"

namespace stramash
{

class KernelInstance;

/** Page-fault handling policy. */
class FaultHandler
{
  public:
    virtual ~FaultHandler() = default;

    /**
     * Resolve a fault raised on @p kernel by @p task at @p va.
     * On return a mapping usable for @p type must exist (the access
     * is retried and panics if it faults persistently).
     */
    virtual void handleFault(KernelInstance &kernel, Task &task,
                             Addr va, XlateStatus kind,
                             AccessType type) = 0;

    /** Task teardown hook (page release discipline differs, §6.4). */
    virtual void onTaskExit(KernelInstance &kernel, Task &task) = 0;
};

/** Futex policy (paper §6.5). */
class FutexPolicy
{
  public:
    virtual ~FutexPolicy() = default;

    /**
     * Block @p task (running on @p kernel) on the futex at @p uaddr
     * if the futex word still holds @p expected.
     * @return true if the task blocked (and was later woken), false
     *         if the value had already changed.
     */
    virtual bool wait(KernelInstance &kernel, Task &task, Addr uaddr,
                      std::uint32_t expected) = 0;

    /** Wake up to @p count waiters of the futex at @p uaddr. */
    virtual unsigned wake(KernelInstance &kernel, Task &task,
                          Addr uaddr, unsigned count) = 0;
};

/** Thread-migration policy. */
class MigrationPolicy
{
  public:
    explicit MigrationPolicy(Machine &machine) : machine_(machine) {}
    virtual ~MigrationPolicy() = default;

    /** Move the task to @p dest; returns when it is runnable there. */
    virtual void migrate(Pid pid, NodeId dest) = 0;

    /**
     * Move the *whole process* to @p dest, which becomes its new
     * origin; the source kernel keeps no state (§5).
     */
    virtual void migrateProcess(Pid pid, NodeId dest) = 0;

    /** Messages and pages replicated since counters were reset
     *  (Table 3 bookkeeping lives with the policy). */
    virtual std::uint64_t replicatedPages() const = 0;
    virtual void resetCounters() = 0;

    // ---- thread-location bookkeeping ----
    // Both designs track where each task's thread currently runs;
    // crash recovery reads and rewrites that record (re-home a task
    // whose node died, forget a reaped one). Every change moves the
    // machine's placement epoch.

    /** Record a freshly spawned task (running at its origin). */
    void
    trackTask(Pid pid, NodeId origin)
    {
        current_[pid] = origin;
        machine_.notePlacementChange();
    }

    /** Node the task's thread currently runs on. */
    NodeId
    currentNode(Pid pid) const
    {
        auto it = current_.find(pid);
        panic_if(it == current_.end(), "untracked task ", pid);
        return it->second;
    }

    /** Rewrite the location record without moving any state. */
    void
    setCurrentNode(Pid pid, NodeId node)
    {
        current_[pid] = node;
        machine_.notePlacementChange();
    }

    /** Drop the location record (task reaped). */
    void
    forgetTask(Pid pid)
    {
        current_.erase(pid);
        machine_.notePlacementChange();
    }

    /** Visit every tracked (pid, current node) pair, in pid order. */
    void
    forEachTask(const std::function<void(Pid, NodeId)> &fn) const
    {
        for (const auto &[pid, node] : current_)
            fn(pid, node);
    }

  private:
    Machine &machine_;
    std::map<Pid, NodeId> current_;
};

} // namespace stramash

#endif // STRAMASH_KERNEL_POLICY_HH

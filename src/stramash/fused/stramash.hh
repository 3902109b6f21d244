/**
 * @file
 * The Stramash policy set: the paper's fused-kernel (shared-mostly)
 * design.
 *
 *  - StramashFaultHandler (§6.4): the remote kernel resolves faults
 *    by walking the origin's VMA tree and page table *directly*
 *    through cache-coherent shared memory (accessor functions /
 *    remote CPU driver), under the cross-ISA Stramash-PTL. Pages the
 *    origin already backs are mapped shared (no copy); missing leaf
 *    PTEs are fast-pathed: the remote kernel allocates from its own
 *    memory and inserts the PTE into *both* page tables — into the
 *    origin's in the remote's native format, tagged for later
 *    reconciliation ("replicated pages" of Table 3). Only a missing
 *    upper table level falls back to one message round so the origin
 *    builds the chain (§9.2.3).
 *
 *  - StramashFutexPolicy (§6.5): the remote kernel manipulates the
 *    origin's futex queues directly over shared memory; waking a
 *    thread parked on the other kernel costs exactly one cross-ISA
 *    IPI.
 *
 *  - StramashMigrationPolicy: register state is handed over through
 *    a shared-memory mailbox; one notification message per
 *    migration. Migrating back to the origin reconciles the
 *    foreign-format PTEs into the origin's native format.
 */

#ifndef STRAMASH_FUSED_STRAMASH_HH
#define STRAMASH_FUSED_STRAMASH_HH

#include <map>
#include <set>
#include <vector>

#include "stramash/dsm/dsm_engine.hh"
#include "stramash/kernel/kernel.hh"

namespace stramash
{

/** Bookkeeping shared by the Stramash policies. */
struct StramashShared
{
    /** pid -> (vpage -> writer node) for leaf PTEs a remote kernel
     *  inserted into the origin's table in its own format — Table 3's
     *  Stramash "replicated pages", reconciled at migrate-back. The
     *  writer matters on N-node machines: the tagged entry decodes
     *  in the *writer's* PTE format, and different remote nodes may
     *  run different ISAs. */
    std::map<Pid, std::map<Addr, NodeId>> foreignMapped;
    /** Total foreign-format insertions (monotonic counter). */
    std::uint64_t foreignInsertions = 0;
    /** Shared-frame mappings established by remote faults. */
    std::uint64_t sharedMappings = 0;
    /** Slow-path rounds (upper table level missing). */
    std::uint64_t slowPathFaults = 0;

    /** Mailbox for migration state handoff (guest address). */
    Addr mailbox = 0;
    /** Node whose data region hosts the mailbox. */
    NodeId mailboxOwner = invalidNode;

    void
    resetCounters()
    {
        foreignInsertions = 0;
        sharedMappings = 0;
        slowPathFaults = 0;
    }
};

/**
 * Resolves the PTE format a tagged (foreign-inserted) leaf entry of
 * @p pid was written in: the recorded writer node's native format,
 * or @p fallback when no record exists (single untracked insertion —
 * decode as the caller's own format, the historical two-node rule).
 * The resolver refers to its arguments; they must outlive it.
 */
TaggedFmtFn taggedFormatOf(const StramashShared &shared,
                           Machine &machine, Pid pid,
                           const PteFormat &fallback);

/**
 * The remote VMA walker's copy of a whole tree (§6.4): @p reader makes
 * one charged 64-byte load per VMA record of @p src, in @p owner's data
 * region, and inserts into @p dst each VMA it lacks. Locking is the
 * caller's business.
 */
void copyVmasRemote(KernelInstance &reader, KernelInstance &owner,
                    Task &src, Task &dst);

/**
 * Frame adoption through the Software Remote Page Table Walker: under
 * @p src's PTL (a charged store by @p reader before and after), walk
 * @p src's table in @p owner's memory for every page of @p dst's VMAs
 * that @p dst does not map yet, and map each present one to the same
 * frame. Tagged entries decode in their recorded writer's format, an
 * unrecorded tag in @p dst's.
 * @return the number of pages mapped.
 */
std::uint64_t adoptFramesRemote(KernelInstance &reader,
                                KernelInstance &owner,
                                const StramashShared &shared, Task &src,
                                Task &dst);

class StramashFaultHandler final : public FaultHandler
{
  public:
    StramashFaultHandler(MessageLayer &msg, KernelLookup kernels,
                         StramashShared &shared);

    /** Register the slow-path handler on a kernel. */
    void installHandlers(KernelInstance &k);

    void handleFault(KernelInstance &kernel, Task &task, Addr va,
                     XlateStatus kind, AccessType type) override;

    void onTaskExit(KernelInstance &kernel, Task &task) override;

  private:
    MessageLayer &msg_;
    KernelLookup kernels_;
    StramashShared &shared_;

    /** Copy the VMA covering @p va out of the origin's tree, through
     *  the remote VMA walker (charged, locked). */
    void remoteVmaWalk(KernelInstance &k, Task &t, Addr va);

    /** Acquire/release a guest lock word owned by @p owner
     *  (guard-checked, charged CAS). */
    void lockWord(KernelInstance &k, NodeId owner, Addr addr);
    void unlockWord(KernelInstance &k, NodeId owner, Addr addr);

    void onRemoteFaultRequest(KernelInstance &k, const Message &m);
};

class StramashFutexPolicy final : public FutexPolicy
{
  public:
    StramashFutexPolicy(KernelLookup kernels, StramashShared &shared);

    bool wait(KernelInstance &kernel, Task &task, Addr uaddr,
              std::uint32_t expected) override;
    unsigned wake(KernelInstance &kernel, Task &task, Addr uaddr,
                  unsigned count) override;

  private:
    KernelLookup kernels_;
    StramashShared &shared_;
};

class StramashMigrationPolicy final : public MigrationPolicy
{
  public:
    StramashMigrationPolicy(MessageLayer &msg, KernelLookup kernels,
                            StramashShared &shared);

    void installHandlers(KernelInstance &k);
    void migrate(Pid pid, NodeId dest) override;

    /** Whole-process migration, fused style: the destination walks
     *  the source's VMA tree and page table directly through shared
     *  memory, adopts the *same* physical frames (no copies), and
     *  the source forgets the task. One notification message. */
    void migrateProcess(Pid pid, NodeId dest) override;

    std::uint64_t
    replicatedPages() const override
    {
        return shared_.foreignInsertions;
    }

    void resetCounters() override { shared_.resetCounters(); }

    static constexpr Cycles transformCycles = 2000;

  private:
    MessageLayer &msg_;
    KernelLookup kernels_;
    StramashShared &shared_;

    void onTaskMigrate(KernelInstance &k, const Message &m);

    /** Reconcile the task's foreign-format PTEs into the origin's
     *  native format (migrate-back step, §6.4). */
    void reconcile(KernelInstance &origin, Pid pid);
};

} // namespace stramash

#endif // STRAMASH_FUSED_STRAMASH_HH

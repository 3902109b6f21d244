/**
 * @file
 * The Popcorn-Linux policy set: the state-of-the-art multiple-kernel
 * (shared-nothing) baseline the paper compares against.
 *
 *  - DsmEngine (dsm_engine.hh) is the fault handler: every
 *    cross-kernel page interaction goes through it (replication,
 *    invalidation, origin-side anonymous allocation).
 *  - PopcornFutexPolicy: all futexes are created and managed by the
 *    origin kernel; remote kernels engage locks by messaging
 *    (paper §6.5).
 *  - PopcornMigrationPolicy: thread migration ships the transformed
 *    register state in a message; the address space follows lazily
 *    through DSM faults.
 */

#ifndef STRAMASH_DSM_POPCORN_HH
#define STRAMASH_DSM_POPCORN_HH

#include "stramash/dsm/dsm_engine.hh"

namespace stramash
{

/** Origin-managed futexes over messages. */
class PopcornFutexPolicy final : public FutexPolicy
{
  public:
    PopcornFutexPolicy(MessageLayer &msg, KernelLookup kernels);

    /** Register the origin-side protocol handlers on a kernel. */
    void installHandlers(KernelInstance &k);

    bool wait(KernelInstance &kernel, Task &task, Addr uaddr,
              std::uint32_t expected) override;
    unsigned wake(KernelInstance &kernel, Task &task, Addr uaddr,
                  unsigned count) override;

  private:
    MessageLayer &msg_;
    KernelLookup kernels_;

    void onFutexWait(KernelInstance &k, const Message &m);
    void onFutexWake(KernelInstance &k, const Message &m);
};

/** Message-based thread migration. */
class PopcornMigrationPolicy final : public MigrationPolicy
{
  public:
    PopcornMigrationPolicy(MessageLayer &msg, KernelLookup kernels,
                           DsmEngine &engine);

    void installHandlers(KernelInstance &k);

    void migrate(Pid pid, NodeId dest) override;

    /** Whole-process transfer: register state, every VMA and every
     *  resident page travel as messages; the source forgets the
     *  task and the destination becomes the new origin (§5). */
    void migrateProcess(Pid pid, NodeId dest) override;

    std::uint64_t
    replicatedPages() const override
    {
        return engine_.replicatedPages();
    }

    void resetCounters() override { engine_.resetCounters(); }

    /** Fixed cost of the state-transformation runtime, per side. */
    static constexpr Cycles transformCycles = 2000;

  private:
    MessageLayer &msg_;
    KernelLookup kernels_;
    DsmEngine &engine_;

    void onTaskMigrate(KernelInstance &k, const Message &m);
    void onProcessMigrate(KernelInstance &k, const Message &m);
    void onProcessVma(KernelInstance &k, const Message &m);
    void onProcessPage(KernelInstance &k, const Message &m);
};

} // namespace stramash

#endif // STRAMASH_DSM_POPCORN_HH

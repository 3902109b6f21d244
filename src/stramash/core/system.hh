/**
 * @file
 * The top-level Stramash library entry point.
 *
 * A System assembles the full stack for one experiment: the fused
 * machine (Stramash-QEMU analogue), the messaging transport, one
 * kernel instance per node, and the OS-design policy set — either
 * the Popcorn multiple-kernel baseline or the Stramash fused-kernel
 * design. Workloads interact through core::App.
 */

#ifndef STRAMASH_CORE_SYSTEM_HH
#define STRAMASH_CORE_SYSTEM_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "stramash/core/placement.hh"
#include "stramash/dsm/popcorn.hh"
#include "stramash/fault/crash.hh"
#include "stramash/fused/global_alloc.hh"
#include "stramash/fused/stramash.hh"

namespace stramash
{

/** Everything needed to stand up one experiment configuration. */
struct SystemConfig
{
    OsDesign osDesign = OsDesign::FusedKernel;
    MemoryModel memoryModel = MemoryModel::Shared;
    /**
     * N-node machine description. Absent (the default) stands up the
     * paper's hard-wired x86+Arm pair — bit-identical to the
     * pre-topology code, as the differential tests check. When set,
     * it overrides `memoryModel` and decides node count, ISAs, DRAM
     * sizes and the messaging-area placement.
     */
    std::optional<TopologySpec> topology;
    Transport transport = Transport::SharedMemory;
    /** Per-node L3 (4 MiB default; 32 MiB in Fig. 10). */
    Addr l3Size = 4 * 1024 * 1024;
    /** IPI notification (true) or polling (false) for SHM rings. */
    bool useIpiNotification = true;
    /** Disable for functional-only runs (kv-store experiment). */
    bool cachePluginEnabled = true;
    double crossIsaIpiUs = 2.0;
    /** Bulk kernel-copy memory-level parallelism (ablation knob). */
    unsigned streamMlp = 8;
    /** CXL coherence action costs (ablation knob). */
    SnoopCosts snoopCosts{};
    /** Remote kernel-memory guard (paper §5 security postulate;
     *  Enforce = the MPU/capability behaviour of the future-work
     *  mechanism). */
    GuardMode remoteGuard = GuardMode::Audit;
    /** Wire the fused global memory allocator (fused design only). */
    bool enableGlobalAllocator = true;
    /** Cross-layer event tracing (off by default; zero-ish cost). */
    TraceConfig trace{};
    /** Fault-injection plan (stramash/fault). Absent = nothing is
     *  injected and the transport runs the historical fast path. */
    std::optional<FaultPlan> faultPlan;
    /** Crash-stop failure detection & recovery (stramash/fault).
     *  A CrashManager is built when a crash is planned in faultPlan
     *  or crash.enabled is set; otherwise the per-operation guard is
     *  compiled out of the path entirely. */
    CrashConfig crash{};
};

class System
{
  public:
    explicit System(const SystemConfig &cfg);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    const SystemConfig &config() const { return cfg_; }
    Machine &machine() { return *machine_; }
    MessageLayer &msg() { return *msg_; }

    /** The kernel on @p node (kernels_ is built in NodeId order). */
    KernelInstance &
    kernel(NodeId node)
    {
        panic_if(node >= kernels_.size(), "unknown kernel node ", node);
        return *kernels_[node];
    }

    std::size_t nodeCount() const { return kernels_.size(); }

    // ---- process lifecycle ----

    /** Create a process at @p origin. VMAs are added via App. */
    Pid spawn(NodeId origin);

    // ---- scheduler-driven placement ----

    /**
     * Attach (or detach, with nullptr) the placement policy. The
     * scheduler implements Placer; while attached, placeNode() and
     * spawnPlaced() route through it. Without one they fall back to
     * the hint pin (or node 0), preserving hand-placed behaviour.
     */
    void setPlacer(Placer *placer) { placer_ = placer; }
    Placer *placer() { return placer_; }

    /**
     * Choose a node for a new task. With a Placer attached this is
     * policy-driven; without one the pin hint wins (first alive node
     * from it in cyclic order if it is dead), defaulting to node 0.
     */
    NodeId placeNode(const PlacementHints &hints);

    /** spawn() at a policy-chosen origin. @p chosen (optional)
     *  receives the node the placement decided on. */
    Pid spawnPlaced(const PlacementHints &hints,
                    NodeId *chosen = nullptr);

    /** First alive node at or cyclically after @p from. */
    NodeId firstAliveFrom(NodeId from) const;

    /** First alive node cyclically after @p from, not @p from itself;
     *  the cyclic successor when every peer is dead. */
    NodeId nextAlivePeer(NodeId from) const;

    /** Terminate the process on every kernel hosting it. */
    void exit(Pid pid);

    /** Migrate one thread (policy-specific mechanics). */
    void migrate(Pid pid, NodeId dest);

    /**
     * Whole-process migration (paper §5: "Inter-kernel process
     * migration is simpler because there is no kernel state to be
     * kept consistent after migration"): the destination becomes the
     * process's new origin and the source kernel forgets it.
     */
    void migrateProcess(Pid pid, NodeId dest);

    /** Node the process currently runs on. */
    NodeId whereIs(Pid pid) const;

    // ---- crash-stop failure & recovery ----

    /**
     * Hook called before every user-level operation (App routes all
     * of its work through this): gives the failure detector a chance
     * to run, and forces detection + recovery when @p pid's own
     * kernel has crashed. One pointer test when no crash machinery
     * is attached.
     */
    void
    noteUserOp(Pid pid)
    {
        if (crash_)
            crash_->guardTask(pid);
    }

    /** Crash a node immediately (chaos/test API). Recovery runs on
     *  the next guarded operation. Requires crash machinery. */
    void killNode(NodeId node);

    /** Bring a declared-dead node back through the hot-plug flow. */
    void rejoinNode(NodeId node);

    /**
     * Cut both directions of the a<->b message link (chaos/test API,
     * mirroring killNode): messages and IPIs vanish, both nodes stay
     * alive, and the crash manager's partition arbitration decides
     * who may fence whom. Requires an attached fault plan (an empty
     * one is enough).
     */
    void severLink(NodeId a, NodeId b);

    /** Restore both directions of a<->b; a fully healed pair runs
     *  the reconcile flow (un-fence / hot-plug rejoin). */
    void healLink(NodeId a, NodeId b);

    bool isNodeAlive(NodeId node) const
    {
        return machine_->nodeAlive(node);
    }

    /** True when @p node may take new work: alive and not frozen in
     *  the crash manager's self-fenced degraded mode. */
    bool
    acceptsWork(NodeId node) const
    {
        return machine_->nodeAlive(node) &&
               !(crash_ && crash_->isSelfFenced(node));
    }

    /** Non-null when a crash is planned or the detector enabled. */
    CrashManager *crashManager() { return crash_.get(); }

    // ---- policy access ----

    FutexPolicy &futexPolicy() { return *futexPolicy_; }

    /** Non-null for the MultipleKernel design. */
    DsmEngine *dsmEngine() { return dsmEngine_.get(); }
    RemoteAccessGuard &remoteGuard() { return *guard_; }
    /** Non-null for the FusedKernel design. */
    StramashShared *stramashState() { return stramashShared_.get(); }
    GlobalMemoryAllocator *globalAllocator() { return gma_.get(); }

    // ---- experiment bookkeeping ----

    /** Zero message/replication counters and node clocks. */
    void resetExperimentCounters();

    std::uint64_t messagesSent() const { return msg_->messagesSent(); }
    std::uint64_t replicatedPages() const;
    Cycles runtime() const { return machine_->totalRuntime(); }

    // ---- telemetry export ----

    Tracer &tracer() { return machine_->tracer(); }

    /**
     * Write the merged Chrome-trace JSON for everything recorded so
     * far. Node tracks are labelled "nodeN (<isa>)". Returns false
     * (with a warning) if the file cannot be written.
     */
    bool writeChromeTrace(const std::string &path);

    /**
     * Write every registered StatGroup (kernels, page allocators,
     * message layer, per-node machine and cache stats, GMA when
     * present) as one JSON document.
     */
    bool writeStatsJson(const std::string &path);

    /** Visit every StatGroup owned by this system, plus any
     *  externally registered ones. */
    void forEachStatGroup(
        const std::function<void(const StatGroup &)> &fn);

    /**
     * Attach a StatGroup owned by a workload-side component (e.g.
     * the open-loop load front end) so it appears in writeStatsJson /
     * forEachStatGroup alongside the system-owned groups. The caller
     * must unregister (or outlive every export) before destroying
     * the group.
     */
    void registerExternalStatGroup(const StatGroup *group);
    void unregisterExternalStatGroup(const StatGroup *group);

  private:
    SystemConfig cfg_;
    std::unique_ptr<Machine> machine_;
    std::unique_ptr<MessageLayer> msg_;
    // Must outlive the kernels: their frame-free callbacks revoke
    // page-table frames from the guard during teardown.
    std::unique_ptr<RemoteAccessGuard> guard_;
    std::vector<std::unique_ptr<KernelInstance>> kernels_;

    // Popcorn policy set.
    std::unique_ptr<DsmEngine> dsmEngine_;
    std::unique_ptr<PopcornFutexPolicy> popcornFutex_;
    std::unique_ptr<PopcornMigrationPolicy> popcornMigration_;

    // Stramash policy set.
    std::unique_ptr<StramashShared> stramashShared_;
    std::unique_ptr<StramashFaultHandler> stramashFault_;
    std::unique_ptr<StramashFutexPolicy> stramashFutex_;
    std::unique_ptr<StramashMigrationPolicy> stramashMigration_;

    std::unique_ptr<GlobalMemoryAllocator> gma_;
    std::unique_ptr<CrashManager> crash_;
    std::vector<const StatGroup *> externalStats_;

    FutexPolicy *futexPolicy_ = nullptr;
    MigrationPolicy *migrationPolicy_ = nullptr;
    Placer *placer_ = nullptr;

    Pid nextPid_ = 100;

    KernelLookup lookup();

    /** Crash guard shared by migrate and migrateProcess: settle a
     *  pending crash of @p pid's kernel, then refuse the move when
     *  the task was reaped or @p dest is dead. */
    bool migrationRefused(Pid pid, NodeId dest);
};

} // namespace stramash

#endif // STRAMASH_CORE_SYSTEM_HH

/**
 * @file
 * The fused machine: every node, one coherent guest memory, one
 * coherence domain, and cross-ISA IPI delivery. This is the
 * Stramash-QEMU analogue — the substrate both OS designs run on.
 */

#ifndef STRAMASH_SIM_MACHINE_HH
#define STRAMASH_SIM_MACHINE_HH

#include <memory>
#include <optional>
#include <vector>

#include "stramash/cache/coherence.hh"
#include "stramash/fault/fault.hh"
#include "stramash/mem/guest_memory.hh"
#include "stramash/mem/phys_map.hh"
#include "stramash/mem/topology.hh"
#include "stramash/sim/node.hh"
#include "stramash/trace/trace.hh"

namespace stramash
{

/** Whole-machine configuration. */
struct MachineConfig
{
    /** The nodes, the memory model and the physical layout
     *  (PhysMap::generate). */
    TopologySpec topology;
    /** Per-node private L3 size; FullyShared instead uses one shared
     *  LLC of this size (paper AE notes). 4 MiB in Fig. 9, 32 MiB in
     *  Fig. 10. */
    Addr l3Size = 4 * 1024 * 1024;
    SnoopCosts snoopCosts{};
    /** Cross-ISA IPI latency in microseconds (paper: 2 us). */
    double crossIsaIpiUs = 2.0;
    /** Outstanding misses a bulk kernel copy can overlap (stream
     *  MLP; 1 = fully serial, for ablation). */
    unsigned streamMlp = 8;
    /** When true, every cache access is skipped and memory costs a
     *  flat latency — used by functional-only runs like the kv-store
     *  experiment, where the paper also disables the Cache plugin. */
    bool cachePluginEnabled = true;
    /** Event-tracing knobs (stramash/trace). */
    TraceConfig trace{};
    /** Attach a fault-injection plan (stramash/fault). Absent =
     *  nothing is ever injected and the sites cost one branch. */
    std::optional<FaultPlan> faultPlan;

    /** The evaluation's default pair: x86 Xeon Gold + Arm ThunderX2
     *  (TopologySpec::paperPair). */
    static MachineConfig paperPair(MemoryModel model,
                                   Addr l3Size = 4 * 1024 * 1024);

    /** A machine of the given topology, other knobs at defaults. */
    static MachineConfig fromTopology(const TopologySpec &spec,
                                      Addr l3Size = 4 * 1024 * 1024);
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return cfg_; }
    GuestMemory &memory() { return mem_; }
    const PhysMap &physMap() const { return map_; }
    CoherenceDomain &caches() { return *domain_; }

    /** The cross-layer event tracer (timestamps = node clocks). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    /** The fault injector; null when no plan is attached. */
    FaultInjector *faultInjector() { return injector_.get(); }
    const FaultInjector *faultInjector() const
    {
        return injector_.get();
    }

    Node &node(NodeId id);
    const Node &node(NodeId id) const;
    std::size_t nodeCount() const { return nodes_.size(); }

    // ---- crash-stop node lifecycle ----

    /**
     * True while @p id is running. Costs one integer compare while
     * nothing is dead (the common case), so the transport and IPI
     * paths can gate on it without measurable overhead.
     */
    bool
    nodeAlive(NodeId id) const
    {
        return deadNodes_ == 0 || node(id).alive();
    }

    /** True while at least one node is crashed. */
    bool anyNodeDead() const { return deadNodes_ != 0; }

    /**
     * Crash-stop @p id: freeze its clock (retire/stall become
     * no-ops) and mark it dead so the transport silences it.
     * Idempotent.
     */
    void killNode(NodeId id);

    /**
     * Bring a crashed node back (the rejoin path). Its clock is
     * fast-forwarded to @p clock — a rebooted machine re-enters at
     * the survivor's "now", not at the instant it died.
     */
    void reviveNode(NodeId id, Cycles clock);

    // ---- link faults (network partitions) ----

    /**
     * Health of the directed message link @p from -> @p to. Costs one
     * integer compare while every link is up (the common case), so
     * the transport can gate on it without measurable overhead. Only
     * the *message* fabric is subject to link state; coherent memory
     * stays connected — that asymmetry is the fused design's
     * arbitration channel.
     */
    LinkState
    linkState(NodeId from, NodeId to) const
    {
        return impairedLinks_ == 0 ? LinkState::Up
                                   : rawLinkState(from, to);
    }

    /** True while at least one directed link is not Up. */
    bool anyLinkImpaired() const { return impairedLinks_ != 0; }

    /**
     * True once any link fault has been configured (a scheduled plan
     * or a chaos-API call) — the crash manager switches from the
     * quorum-only protocol to partition-safe arbitration only then,
     * so runs without link faults stay bit-identical to history.
     */
    bool partitionArmed() const { return partitionArmed_; }

    /**
     * Set the directed link @p from -> @p to. Requires an attached
     * fault injector (link faults are chaos machinery; the partition
     * counters live there). Counts, traces, then invokes the link
     * event hook. Idempotent per state.
     */
    void setLinkState(NodeId from, NodeId to, LinkState s);

    /** Observer for link transitions (System wires the crash
     *  manager's heal/reconcile path here). Fires after the state is
     *  applied. */
    using LinkEventFn = std::function<void(NodeId, NodeId, LinkState)>;
    void setLinkEventHook(LinkEventFn fn) { linkHook_ = std::move(fn); }

    /**
     * Charge a data access by @p node at physical address @p pa
     * through the cache/coherence model and advance the node's clock.
     * @return the latency charged.
     */
    Cycles dataAccess(NodeId nid, AccessType type, Addr pa,
                      unsigned size);

    /**
     * Charge a *bulk kernel copy* (ring payload, DSM page transfer,
     * page zeroing): the cache model runs per line, but miss
     * latencies overlap across MachineConfig::streamMlp outstanding
     * requests, as a streaming kernel memcpy enjoys. Application
     * accesses must NOT use this — they are charged serially,
     * exactly like the per-instruction feedback of the paper's Cache
     * plugin.
     */
    Cycles streamAccess(NodeId nid, AccessType type, Addr pa,
                        unsigned size);

    /** Retire instructions on a node (fixed-IPC timing). */
    void retire(NodeId nid, ICount n);

    /** Add explicit overhead cycles (locks, protocol processing). */
    void stall(NodeId nid, Cycles c);

    /**
     * Deliver a cross-ISA IPI (paper §7.2): the receiver pays the
     * delivery latency. @return the latency in receiver cycles.
     */
    Cycles sendIpi(NodeId from, NodeId to);

    /** Cross-ISA IPI cost in @p node cycles. */
    Cycles ipiCycles(NodeId node) const;

    /** Count of IPIs received per node. */
    std::uint64_t ipisReceived(NodeId node) const;

    /**
     * Final runtime per the paper's AE formula:
     * Final Runtime = x86 runtime + Arm runtime (single app migrating
     * between nodes — only one side executes at a time).
     */
    Cycles totalRuntime() const;

    /** For genuinely concurrent phases: the slower node's clock. */
    Cycles maxRuntime() const;

    /** Reset every node clock and cache (between experiments). */
    void resetTiming();

    /**
     * Trace hooks: observe every charged access and retirement.
     * Used by the validation harnesses (Figs. 7 and 8) to replay an
     * execution through alternative timing models.
     */
    using AccessTraceFn =
        std::function<void(NodeId, AccessType, Addr, unsigned)>;
    using RetireTraceFn = std::function<void(NodeId, ICount)>;

    void
    setTraceHooks(AccessTraceFn access, RetireTraceFn retireFn)
    {
        accessTrace_ = std::move(access);
        retireTrace_ = std::move(retireFn);
    }

    void
    clearTraceHooks()
    {
        accessTrace_ = nullptr;
        retireTrace_ = nullptr;
    }

    /**
     * Host-side count of changes to where tasks run: a kernel's task
     * table (create, destroy, rejoin reset) or the migration policy's
     * location record changed. App caches its (kernel, task) binding
     * until this moves. No simulated effect.
     */
    std::uint64_t placementEpoch() const { return placementEpoch_; }
    void notePlacementChange() { ++placementEpoch_; }

  private:
    /**
     * Poll the scheduled faults after a clock advance on @p nid. Two
     * predictable branches when nothing is armed (the injector
     * pointer, then the armed check); the slow path lives in the .cc.
     */
    void
    maybeFireCrash(NodeId nid)
    {
        if (injector_ && injector_->scheduleArmed())
            fireScheduledIfDue(nid);
    }

    /** Fire every due scheduled crash of @p nid, then every due link
     *  transition (link deadlines read both endpoint clocks, so they
     *  are polled regardless of @p nid). */
    void fireScheduledIfDue(NodeId nid);

    LinkState
    rawLinkState(NodeId from, NodeId to) const
    {
        return static_cast<LinkState>(
            links_[from * byId_.size() + to]);
    }

    MachineConfig cfg_;
    GuestMemory mem_;
    PhysMap map_;
    std::unique_ptr<CoherenceDomain> domain_;
    std::vector<std::unique_ptr<Node>> nodes_;
    /** Dense NodeId -> Node index (ids are validated dense). */
    std::vector<Node *> byId_;
    std::vector<std::uint64_t> ipisReceived_;
    /** Each node's "ipis_received" stat, fetched on its first IPI. */
    std::vector<Counter *> ipiStats_;
    Tracer tracer_;
    std::unique_ptr<FaultInjector> injector_;
    AccessTraceFn accessTrace_;
    RetireTraceFn retireTrace_;
    /** Count of crashed nodes; non-zero activates liveness checks. */
    unsigned deadNodes_ = 0;
    /** n*n directed LinkState matrix (row = from). */
    std::vector<std::uint8_t> links_;
    /** Count of links not Up; non-zero activates link checks. */
    unsigned impairedLinks_ = 0;
    /** Latches true on the first configured link fault. */
    bool partitionArmed_ = false;
    LinkEventFn linkHook_;
    std::uint64_t placementEpoch_ = 0;
};

} // namespace stramash

#endif // STRAMASH_SIM_MACHINE_HH

/**
 * @file
 * One simulated node: an island of homogeneous-ISA cores with its own
 * icount timebase, mirroring one fused QEMU instance.
 */

#ifndef STRAMASH_SIM_NODE_HH
#define STRAMASH_SIM_NODE_HH

#include <string>

#include "stramash/common/stats.hh"
#include "stramash/mem/latency_profile.hh"
#include "stramash/mem/topology.hh"

namespace stramash
{

/**
 * Runtime state of a node. Timing follows the paper's PriME-style
 * model (§7.3): instructions retire at a fixed non-memory IPC of 1
 * on both ISAs (one cycle per instruction), and the cache simulator
 * feeds memory-access overhead back into the icount-driven clock.
 */
class Node
{
  public:
    explicit Node(const TopologyNode &cfg)
        : cfg_(cfg),
          profile_(latencyProfile(cfg.core)),
          stats_(std::string("node") + std::to_string(cfg.id))
    {
    }

    NodeId id() const { return cfg_.id; }
    IsaType isa() const { return cfg_.isa; }
    const TopologyNode &config() const { return cfg_; }
    const LatencyProfile &profile() const { return profile_; }

    /** Retire @p n instructions at the fixed non-memory IPC of 1. */
    void
    retire(ICount n)
    {
        if (!alive_)
            return;
        icount_ += n;
        cycles_ += n;
    }

    /** Add memory/IPI/etc. overhead cycles from the timing model. */
    void
    stall(Cycles c)
    {
        if (!alive_)
            return;
        cycles_ += c;
        memCycles_ += c;
    }

    ICount icount() const { return icount_; }
    Cycles cycles() const { return cycles_; }
    /** Cycles attributable to memory-system feedback. */
    Cycles memCycles() const { return memCycles_; }

    void
    resetTime()
    {
        icount_ = 0;
        cycles_ = 0;
        memCycles_ = 0;
    }

    /**
     * Crash-stop lifecycle. A dead node's clock is frozen: retire()
     * and stall() become no-ops, so every code path that would charge
     * time to a crashed node silently stops making progress there.
     * Machine::killNode()/reviveNode() are the only callers.
     */
    bool alive() const { return alive_; }
    void setAlive(bool alive) { alive_ = alive; }

    /** Fast-forward a rejoining node's frozen clock to @p c. */
    void
    syncClock(Cycles c)
    {
        cycles_ = c;
    }

    StatGroup &stats() { return stats_; }

  private:
    TopologyNode cfg_;
    const LatencyProfile &profile_;
    StatGroup stats_;
    ICount icount_ = 0;
    Cycles cycles_ = 0;
    Cycles memCycles_ = 0;
    bool alive_ = true;
};

} // namespace stramash

#endif // STRAMASH_SIM_NODE_HH

/**
 * @file
 * Remote kernel-memory access guard — the paper's future-work
 * security mechanism (§5 "kernel instances should share only
 * required data structures; everything else should be in private
 * memory or protected by hardware enforcement", §6 "we did not find
 * an efficient method to limit the kernel-space remotely accessible
 * memory between ISAs ... future work").
 *
 * Each kernel registers the extents of its memory that the *other*
 * kernels are allowed to touch through the fused accessor functions:
 * the kernel data region (lock words, futex buckets, VMA nodes, the
 * migration mailbox) and the page-table frames the remote walkers
 * traverse. Every cross-kernel access the fused design performs is
 * routed through KernelInstance::remoteAccess(), which consults the
 * guard:
 *
 *   Off     — no checking (the paper's prototype);
 *   Audit   — violations are counted but allowed;
 *   Enforce — violations panic (the MPU/capability behaviour the
 *             paper postulates).
 */

#ifndef STRAMASH_KERNEL_REMOTE_GUARD_HH
#define STRAMASH_KERNEL_REMOTE_GUARD_HH

#include <map>

#include "stramash/common/addr_range.hh"
#include "stramash/common/stats.hh"

namespace stramash
{

enum class GuardMode : std::uint8_t {
    Off,
    Audit,
    Enforce,
};

const char *guardModeName(GuardMode m);

class RemoteAccessGuard
{
  public:
    explicit RemoteAccessGuard(GuardMode mode = GuardMode::Audit)
        : mode_(mode), stats_("remote_guard")
    {
    }

    GuardMode mode() const { return mode_; }

    /** Owner @p node exposes [start, end) to remote kernels. */
    void
    allow(NodeId node, const AddrRange &r)
    {
        allowed_[node].insert(r.start, r.end);
    }

    /** Withdraw an exposed extent (e.g. a freed page-table frame). */
    void
    revoke(NodeId node, const AddrRange &r)
    {
        auto it = allowed_.find(node);
        if (it != allowed_.end())
            it->second.erase(r.start, r.end);
    }

    /** True if a remote access to @p node's address is permitted. */
    bool
    permitted(NodeId node, Addr addr, unsigned size) const
    {
        auto it = allowed_.find(node);
        if (it == allowed_.end())
            return false;
        return it->second.containsRange(addr, addr + size);
    }

    /**
     * Consult the guard for an access by @p accessor to memory owned
     * by @p owner. Returns true when the access may proceed (always,
     * except Enforce-mode violations, which panic before returning).
     */
    bool
    checkAccess(NodeId accessor, NodeId owner, Addr addr,
                unsigned size)
    {
        if (mode_ == GuardMode::Off || accessor == owner)
            return true;
        if (permitted(owner, addr, size)) {
            stats_.counter("checked") += 1;
            return true;
        }
        stats_.counter("violations") += 1;
        panic_if(mode_ == GuardMode::Enforce,
                 "remote kernel-memory access violation: node ",
                 accessor, " touched node ", owner,
                 "'s private memory at 0x", std::hex, addr);
        return true;
    }

    std::uint64_t violations() const { return stats_.value("violations"); }
    std::uint64_t checked() const { return stats_.value("checked"); }
    const StatGroup &stats() const { return stats_; }

    /** Bytes node @p n currently exposes. */
    Addr
    exposedBytes(NodeId n) const
    {
        auto it = allowed_.find(n);
        return it == allowed_.end() ? 0 : it->second.totalBytes();
    }

  private:
    GuardMode mode_;
    StatGroup stats_;
    std::map<NodeId, IntervalSet> allowed_;
};

} // namespace stramash

#endif // STRAMASH_KERNEL_REMOTE_GUARD_HH

/**
 * @file
 * Placement abstraction between the core process layer and the
 * scheduler.
 *
 * The System consults a Placer (when one is attached) to decide
 * which node a new task should start on, and workloads consult it to
 * pick offload targets. The real implementation lives in
 * stramash/sched. core only sees this interface: a System runs with
 * no Placer attached, and the policies stay inside sched/, which is
 * built on top of core/.
 */

#ifndef STRAMASH_CORE_PLACEMENT_HH
#define STRAMASH_CORE_PLACEMENT_HH

#include <cstdint>
#include <optional>

#include "stramash/common/types.hh"

namespace stramash
{

/**
 * What the caller knows about a task at placement time. Everything is
 * optional: an empty hint set means "anywhere" and the policy decides
 * on load alone.
 */
struct PlacementHints
{
    /** Prefer a node running this ISA (e.g. an ISA-affine phase). */
    std::optional<IsaType> preferIsa;
    /** Warm-cache footprint in bytes: state the task would have to
     *  re-fetch after moving to another node's cache hierarchy. */
    std::uint64_t footprintBytes = 0;
    /** Hard pin: place exactly here (dead-node fallback aside). */
    std::optional<NodeId> pin;
};

/**
 * A placement policy. Implemented by sched::Scheduler; attached to
 * the System with setPlacer(). The Placer must outlive the window in
 * which it is attached (detach with setPlacer(nullptr) first).
 */
class Placer
{
  public:
    virtual ~Placer() = default;

    /** Choose a node for a task described by @p hints. Must return
     *  an alive node. */
    virtual NodeId place(const PlacementHints &hints) = 0;

    /**
     * Choose where a task currently at @p from should run its next
     * offloadable phase (the scheduler-driven replacement for the
     * hard-coded migrateToNext() hop). Returning @p from means
     * "stay put".
     */
    virtual NodeId offloadTarget(NodeId from,
                                 const PlacementHints &hints) = 0;
};

} // namespace stramash

#endif // STRAMASH_CORE_PLACEMENT_HH

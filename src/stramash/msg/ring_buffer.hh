/**
 * @file
 * A shared-memory message ring resident in guest physical memory
 * (paper §6.2: "one or more pairs of shared memory ring buffers per
 * kernel pair").
 *
 * The ring's storage is real guest memory, so every enqueue/dequeue
 * performs actual loads and stores *through the machine's cache and
 * coherence model*. The messaging cost the paper measures therefore
 * emerges from placement: a ring in the pool is remote for both
 * kernels (Shared-SHM), in x86-local memory it is remote only for
 * the Arm side (Separated-SHM), and so on — no per-model constants.
 */

#ifndef STRAMASH_MSG_RING_BUFFER_HH
#define STRAMASH_MSG_RING_BUFFER_HH

#include <optional>

#include "stramash/msg/message.hh"
#include "stramash/sim/machine.hh"

namespace stramash
{

/**
 * Fixed-slot SPSC ring in guest memory. Layout:
 *   [0,  8)  head (next slot to read), written by consumer
 *   [8, 16)  tail (next slot to write), written by producer
 *   [64, …)  slots of slotBytes each
 */
class MessageRing
{
  public:
    /** Header (64 B) + page payload: fits any DSM message. */
    static constexpr std::size_t slotBytes =
        Message::headerBytes + pageSize;

    /**
     * @param base guest-physical base of the ring area
     * @param bytes total bytes reserved (determines slot count)
     */
    MessageRing(Machine &machine, Addr base, Addr bytes);

    /** Capacity in messages. */
    std::size_t capacity() const { return numSlots_ - 1; }

    /** Messages currently queued. */
    std::size_t size() const;

    // ---- occupancy / backpressure hooks (uncharged host reads) ----

    /** Free slots before enqueue() starts failing. */
    std::size_t freeSlots() const { return capacity() - size(); }

    /** True when the next enqueue() would be refused. */
    bool full() const { return size() >= capacity(); }

    /** Queued fraction of capacity, in [0, 1]. */
    double
    occupancy() const
    {
        return static_cast<double>(size()) /
               static_cast<double>(capacity());
    }

    /** Deepest the ring has ever been (post-enqueue depth). An
     *  admission controller consults this to size its shed
     *  threshold; reset only by recreating the ring. */
    std::size_t highWatermark() const { return highWatermark_; }

    /**
     * Enqueue, charging the producing node the control-word and slot
     * stores through the cache model.
     * @return false if the ring is full.
     */
    bool enqueue(NodeId producer, const Message &msg);

    /**
     * Dequeue, charging the consuming node the control-word and slot
     * loads.
     */
    std::optional<Message> dequeue(NodeId consumer);

    /**
     * Charge one polling probe (a head/tail load) without consuming.
     * @return true if a message is available.
     */
    bool pollProbe(NodeId consumer);

    Addr base() const { return base_; }

  private:
    Machine &machine_;
    Addr base_;
    std::size_t numSlots_;
    std::size_t highWatermark_ = 0;

    Addr headAddr() const { return base_; }
    Addr tailAddr() const { return base_ + 8; }
    Addr slotAddr(std::uint64_t idx) const
    {
        return base_ + 64 + idx * slotBytes;
    }
};

} // namespace stramash

#endif // STRAMASH_MSG_RING_BUFFER_HH

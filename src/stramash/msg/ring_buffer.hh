/**
 * @file
 * A shared-memory message ring resident in guest physical memory
 * (paper §6.2: "one or more pairs of shared memory ring buffers per
 * kernel pair").
 *
 * The ring's slots are charged guest addresses: every enqueue and
 * dequeue charges its loads and stores *through the machine's cache
 * and coherence model*. The messaging cost the paper measures
 * therefore emerges from placement: a ring in the pool is remote for
 * both kernels (Shared-SHM), in x86-local memory it is remote only
 * for the Arm side (Separated-SHM), and so on — no per-model
 * constants.
 *
 * The messages themselves travel on the host, in a FIFO inside the
 * ring: nothing reads a slot's bytes, so none are written to guest
 * memory and a ring costs host memory only for what is in flight.
 */

#ifndef STRAMASH_MSG_RING_BUFFER_HH
#define STRAMASH_MSG_RING_BUFFER_HH

#include <deque>
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
 *
 * Both control words are stored to guest memory whenever they change,
 * and every load and store of them is charged; the host reads its own
 * copies rather than loading the words back.
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
    std::size_t
    size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }

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

    Addr base() const { return base_; }

  private:
    Machine &machine_;
    Addr base_;
    std::size_t numSlots_;
    /** Host copies of the control words; the ring is their only
     *  writer, so they always match guest memory. */
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    /** Queued messages, oldest first: tail_ - head_ of them. */
    std::deque<Message> inFlight_;

    Addr headAddr() const { return base_; }
    Addr tailAddr() const { return base_ + 8; }
    Addr slotAddr(std::uint64_t idx) const
    {
        return base_ + 64 + idx * slotBytes;
    }
};

} // namespace stramash

#endif // STRAMASH_MSG_RING_BUFFER_HH

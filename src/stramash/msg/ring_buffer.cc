#include "stramash/msg/ring_buffer.hh"

#include "stramash/common/logging.hh"

namespace stramash
{

MessageRing::MessageRing(Machine &machine, Addr base, Addr bytes)
    : machine_(machine), base_(base)
{
    panic_if(bytes < 64 + 2 * slotBytes, "ring area too small");
    numSlots_ = (bytes - 64) / slotBytes;
    // Zero the control words through plain (uncharged) writes: this
    // is boot-time initialisation.
    machine_.memory().store<std::uint64_t>(headAddr(), 0);
    machine_.memory().store<std::uint64_t>(tailAddr(), 0);
}

bool
MessageRing::enqueue(NodeId producer, const Message &msg)
{
    panic_if(msg.payload.size() > slotBytes - Message::headerBytes,
             "message payload exceeds ring slot");

    // Control words: load head and tail.
    machine_.dataAccess(producer, AccessType::Load, headAddr(), 8);
    machine_.dataAccess(producer, AccessType::Load, tailAddr(), 8);
    if (size() >= capacity())
        return false;

    // Fill the slot: header store, then the payload as a streaming
    // store with MLP.
    Addr slot = slotAddr(tail_ % numSlots_);
    machine_.dataAccess(producer, AccessType::Store, slot,
                        Message::headerBytes);
    if (!msg.payload.empty()) {
        machine_.streamAccess(producer, AccessType::Store,
                              slot + Message::headerBytes,
                              static_cast<unsigned>(
                                  msg.payload.size()));
    }
    inFlight_.push_back(msg);

    // Publish: bump tail.
    machine_.memory().store<std::uint64_t>(tailAddr(), ++tail_);
    machine_.dataAccess(producer, AccessType::Store, tailAddr(), 8);
    return true;
}

std::optional<Message>
MessageRing::dequeue(NodeId consumer)
{
    machine_.dataAccess(consumer, AccessType::Load, headAddr(), 8);
    machine_.dataAccess(consumer, AccessType::Load, tailAddr(), 8);
    if (head_ == tail_)
        return std::nullopt;

    Addr slot = slotAddr(head_ % numSlots_);
    Message msg = std::move(inFlight_.front());
    inFlight_.pop_front();
    machine_.dataAccess(consumer, AccessType::Load, slot,
                        Message::headerBytes);
    if (!msg.payload.empty()) {
        machine_.streamAccess(consumer, AccessType::Load,
                              slot + Message::headerBytes,
                              static_cast<unsigned>(msg.payload.size()));
    }

    machine_.memory().store<std::uint64_t>(headAddr(), ++head_);
    machine_.dataAccess(consumer, AccessType::Store, headAddr(), 8);
    return msg;
}

} // namespace stramash

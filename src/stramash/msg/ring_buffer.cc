#include "stramash/msg/ring_buffer.hh"

#include <cstring>

#include "stramash/common/logging.hh"

namespace stramash
{

namespace
{

/** On-wire header layout inside a slot. */
struct WireHeader
{
    std::uint8_t type;
    std::uint8_t pad[3];
    std::uint32_t from;
    std::uint32_t to;
    std::uint32_t crc;
    std::uint64_t seq;
    std::uint64_t arg0;
    std::uint64_t arg1;
    std::uint64_t arg2;
    std::uint64_t payloadSize;
    std::uint32_t rpcId;
    std::uint32_t respondsTo;
};
static_assert(sizeof(WireHeader) <= Message::headerBytes);

} // namespace

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
    GuestMemory &mem = machine_.memory();
    panic_if(msg.payload.size() > slotBytes - Message::headerBytes,
             "message payload exceeds ring slot");

    // Control words: load head and tail.
    machine_.dataAccess(producer, AccessType::Load, headAddr(), 8);
    machine_.dataAccess(producer, AccessType::Load, tailAddr(), 8);
    if (size() >= capacity())
        return false;

    // Serialise into the slot, charging the stores.
    Addr slot = slotAddr(tail_ % numSlots_);
    WireHeader h{};
    h.type = static_cast<std::uint8_t>(msg.type);
    h.from = msg.from;
    h.to = msg.to;
    h.crc = msg.crc;
    h.seq = msg.seq;
    h.arg0 = msg.arg0;
    h.arg1 = msg.arg1;
    h.arg2 = msg.arg2;
    h.payloadSize = msg.payload.size();
    h.rpcId = msg.rpcId;
    h.respondsTo = msg.respondsTo;
    mem.write(slot, &h, sizeof(h));
    machine_.dataAccess(producer, AccessType::Store, slot,
                        Message::headerBytes);
    if (!msg.payload.empty()) {
        mem.write(slot + Message::headerBytes, msg.payload.data(),
                  msg.payload.size());
        // Bulk payload copy: streaming store with MLP.
        machine_.streamAccess(producer, AccessType::Store,
                              slot + Message::headerBytes,
                              static_cast<unsigned>(
                                  msg.payload.size()));
    }

    // Publish: bump tail.
    mem.store<std::uint64_t>(tailAddr(), ++tail_);
    machine_.dataAccess(producer, AccessType::Store, tailAddr(), 8);
    return true;
}

std::optional<Message>
MessageRing::dequeue(NodeId consumer)
{
    GuestMemory &mem = machine_.memory();

    machine_.dataAccess(consumer, AccessType::Load, headAddr(), 8);
    machine_.dataAccess(consumer, AccessType::Load, tailAddr(), 8);
    if (head_ == tail_)
        return std::nullopt;

    Addr slot = slotAddr(head_ % numSlots_);
    WireHeader h{};
    mem.read(slot, &h, sizeof(h));
    machine_.dataAccess(consumer, AccessType::Load, slot,
                        Message::headerBytes);

    Message msg;
    msg.type = static_cast<MsgType>(h.type);
    msg.from = h.from;
    msg.to = h.to;
    msg.crc = h.crc;
    msg.seq = h.seq;
    msg.arg0 = h.arg0;
    msg.arg1 = h.arg1;
    msg.arg2 = h.arg2;
    msg.rpcId = h.rpcId;
    msg.respondsTo = h.respondsTo;
    msg.payload.resize(h.payloadSize);
    if (h.payloadSize) {
        mem.read(slot + Message::headerBytes, msg.payload.data(),
                 h.payloadSize);
        machine_.streamAccess(consumer, AccessType::Load,
                              slot + Message::headerBytes,
                              static_cast<unsigned>(h.payloadSize));
    }

    mem.store<std::uint64_t>(headAddr(), ++head_);
    machine_.dataAccess(consumer, AccessType::Store, headAddr(), 8);
    return msg;
}

} // namespace stramash

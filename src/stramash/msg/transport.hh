/**
 * @file
 * The inter-kernel messaging layer (paper §6.2, §8.2).
 *
 * Two transports:
 *
 *  - ShmMessageLayer: a pair of guest-memory rings per kernel pair
 *    plus a cross-ISA IPI (or polling) for notification. All costs
 *    emerge from real ring reads/writes through the cache model and
 *    the IPI latency.
 *
 *  - TcpMessageLayer: Popcorn's network transport; charges the
 *    measured SmartNIC round-trip latency (75 us per round trip,
 *    37.5 us per one-way message) plus per-byte stack costs. No
 *    shared memory involved, so it performs identically on every
 *    hardware memory model — exactly as the paper observes.
 *
 * The layer also provides the synchronous dispatch pump the kernels
 * use: handlers registered per node are driven by dispatchPending(),
 * and rpc() implements the request/response pattern every Popcorn
 * protocol is built on.
 */

#ifndef STRAMASH_MSG_TRANSPORT_HH
#define STRAMASH_MSG_TRANSPORT_HH

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "stramash/common/result.hh"
#include "stramash/common/stats.hh"
#include "stramash/msg/ring_buffer.hh"

namespace stramash
{

/**
 * Per-message CPU costs not covered by the memory system. The
 * defaults reflect measured Popcorn-Linux messaging behaviour: a
 * message is not just the IPI (2 us) but interrupt handling, work
 * queue scheduling, handler execution and marshalling — of the order
 * of 10 us of kernel time end to end.
 */
struct MsgCosts
{
    /** Handler dispatch cost on the receiver, per message. */
    Cycles handlerCycles = 15000;
    /** Enqueue/setup cost on the sender, per message. */
    Cycles sendSetupCycles = 5000;
    /** TCP one-way propagation (paper: 75 us per round trip). */
    double tcpOneWayUs = 37.5;
    /** TCP stack per-byte copy cost, each side. */
    double tcpPerByteCycles = 0.5;
};

/**
 * Every simulated-cycle deadline the resilient request/response layer
 * uses, in one place. Call sites must not carry their own magic
 * numbers.
 *
 * Timeouts and backoff are charged to the *requester's* clock in
 * simulated cycles, so a chaos run's timing results are exactly as
 * reproducible as a fault-free run's.
 */
struct RpcPolicy
{
    /** Cycles the requester waits for a response before retrying. */
    Cycles responseTimeoutCycles = 200000;
    /** Transmission attempts per logical RPC before giving up. */
    unsigned maxAttempts = 8;
    /** First retry backoff; doubles per retry (exponential). */
    Cycles backoffBaseCycles = 25000;
    /** Backoff growth stops here. */
    Cycles backoffCapCycles = 400000;

    Cycles
    backoffForAttempt(unsigned attempt) const
    {
        Cycles b = backoffBaseCycles;
        for (unsigned i = 1; i < attempt && b < backoffCapCycles; ++i)
            b *= 2;
        return std::min(b, backoffCapCycles);
    }
};

/** A kernel's message handler. */
using MsgHandler = std::function<void(const Message &)>;

class MessageLayer
{
  public:
    explicit MessageLayer(Machine &machine);
    virtual ~MessageLayer() = default;

    /** Register the kernel message pump for @p node. */
    void registerHandler(NodeId node, MsgHandler handler);

    /**
     * Send one message (msg.from/msg.to must be set).
     * @return Errc::RingFull when the transport had no room (the
     *         message was not delivered); Errc::Ok otherwise.
     */
    Errc send(const Message &msg);

    /** Pop one pending message for @p node, charging receive costs. */
    std::optional<Message> tryReceive(NodeId node);

    /**
     * Deliver every pending message for @p node to its handler.
     * Handlers may send further messages (including back to the
     * original sender); dispatch is re-entrant. No-op for a crashed
     * node (its pump no longer runs).
     */
    void dispatchPending(NodeId node);

    /**
     * Discard every message queued for @p node without running any
     * handler — the crash-recovery path's way of emptying a dead
     * kernel's inbox so a later rejoin starts clean.
     * @return how many messages were discarded.
     */
    std::size_t purgeQueues(NodeId node);

    /**
     * Synchronous RPC: send @p req, drive the destination's pump,
     * and return the first @p respType message that arrives back.
     * Other messages arriving at the caller meanwhile are routed to
     * the caller's own handler. Panics if the destination never
     * responds — use tryRpc() at recoverable boundaries.
     */
    Message rpc(const Message &req, MsgType respType);

    /**
     * Resilient RPC. In fault-free operation this is exactly rpc():
     * one send, one dispatch, same wire traffic, same costs. With a
     * fault injector attached it becomes an at-most-once call:
     * retries (fresh seq, same rpcId) with exponential backoff and
     * simulated-cycle timeouts per RpcPolicy, duplicate-request
     * suppression via the server-side reply cache, and duplicate /
     * corrupted-delivery suppression via seq + CRC on the receive
     * path.
     *
     * @return the response, or std::nullopt after maxAttempts
     *         timeouts (the caller decides how to degrade).
     */
    std::optional<Message> tryRpc(const Message &req, MsgType respType);

    /**
     * Reliable one-way send. Without an injector this is exactly the
     * historical fire-and-forget pattern: send() plus an optional
     * immediate dispatchPending(to). With an injector the message is
     * acknowledged (MsgType::Ack) and retried like any RPC, so a
     * dropped delivery cannot silently lose a migration stage or a
     * futex wakeup.
     *
     * @return Ok, or Unreachable when every attempt timed out.
     */
    Errc sendReliable(const Message &msg, bool dispatchNow = true);

    RpcPolicy &rpcPolicy() { return policy_; }
    const RpcPolicy &rpcPolicy() const { return policy_; }

    StatGroup &stats() { return stats_; }

    /**
     * Occupancy of the @p from → @p to channel in [0, 1], for
     * admission-control decisions (an open-loop front end sheds
     * load *before* committing work when the transport is backed
     * up). Transports without bounded channels report 0.
     */
    virtual double channelOccupancy(NodeId from, NodeId to) const
    {
        (void)from;
        (void)to;
        return 0.0;
    }

    /** Total messages sent since construction (Table 3). */
    std::uint64_t messagesSent() const { return sent_; }

    std::uint64_t bytesSent() const { return bytes_; }

    void resetCounters();

    Machine &machine() { return machine_; }

  protected:
    /** Transport-specific delivery; must charge sender-side costs.
     *  @return Errc::RingFull when the channel had no room. */
    virtual Errc transportSend(const Message &msg) = 0;
    /** Transport-specific fetch; must charge receiver-side costs. */
    virtual std::optional<Message> transportReceive(NodeId node) = 0;

    Machine &machine_;
    StatGroup stats_;

  private:
    std::map<NodeId, MsgHandler> handlers_;
    std::uint64_t sent_ = 0;
    std::uint64_t bytes_ = 0;
    std::uint64_t seq_ = 0;
    RpcPolicy policy_;

    // ---- resilient-mode state (touched only with an injector) ----

    /** rpcId generator; ids are unique across the whole layer. */
    std::uint32_t nextRpcId_ = 0;
    /** Last delivered seq per (from, to) channel, for dedup. */
    std::map<std::pair<NodeId, NodeId>, std::uint64_t> lastSeq_;
    /** At-most-once reply cache: rpcId -> the response that served
     *  it. Replayed instead of re-running the handler when a retried
     *  request arrives (handlers stay non-idempotent-safe). */
    std::unordered_map<std::uint32_t, Message> replyCache_;
    std::deque<std::uint32_t> replyOrder_;
    /** Outstanding tryRpc calls: responses drained by a *nested*
     *  rpc's receive loop park here for the frame that owns them. */
    std::map<std::uint32_t, std::optional<Message>> pendingRpcs_;
    static constexpr std::size_t replyCacheCapacity = 1024;

    /** One frame per rpc request currently being served. */
    struct ServeCtx
    {
        NodeId requester;
        std::uint32_t rpcId;
        bool responded;
    };
    std::vector<ServeCtx> serveStack_;

    /** A message in flight on a Delayed link: it re-enters the
     *  transport only once the receiver's clock reaches releaseAt —
     *  so a receiver that never advances never hears it, which is
     *  what lets a *sustained* delay exhaust a retry budget. */
    struct ParkedMsg
    {
        Cycles releaseAt;
        Message msg;
    };
    /** Parked messages keyed by destination, FIFO per destination. */
    std::map<NodeId, std::deque<ParkedMsg>> parked_;

    /** Re-inject every parked message for @p node whose release time
     *  the node's clock has reached. */
    void releaseDueParked(NodeId node);

    /** True when the resilient machinery is active. */
    bool resilient() const;

    /** transportReceive plus receive-side tracing, CRC verification
     *  and duplicate suppression. */
    std::optional<Message> receive(NodeId node);

    /** Route one received message: reply-cache replay for retried
     *  requests, handler invocation, response capture, auto-ack. */
    void deliver(NodeId node, const Message &m);

    /** Remember @p resp as the answer to @p rpcId. */
    void cacheReply(std::uint32_t rpcId, const Message &resp);
};

/** Shared-memory rings + IPI/polling notification. */
class ShmMessageLayer final : public MessageLayer
{
  public:
    /**
     * @param areaBase  guest-physical base of the 128 MiB messaging
     *                  area (placement decides local vs remote!)
     * @param areaBytes size of the area; split evenly per direction
     * @param useIpi    IPI notification (true) or polling (false)
     */
    ShmMessageLayer(Machine &machine, Addr areaBase, Addr areaBytes,
                    bool useIpi, MsgCosts costs = {});

    /**
     * The paper's placement rule for the messaging area under each
     * hardware model (§8.2): Separated → x86-local (Arm pays remote),
     * Shared → the pool (both pay remote), FullyShared → local to
     * both. Hard-wired to the Figure-4 layout; N-node machines use
     * areaBaseFor().
     */
    static Addr paperAreaBase(MemoryModel model);
    static constexpr Addr paperAreaBytes = 128 * 1024 * 1024;

    /**
     * The same placement rule expressed against an arbitrary PhysMap:
     * Shared → the start of the pool; otherwise inside node 0's boot
     * strip, 1 GiB in when the strip is large enough (which makes it
     * land exactly on paperAreaBase() for the paper layout) and
     * flush with the strip's end otherwise. Panics when the area
     * does not fit.
     */
    static Addr areaBaseFor(const PhysMap &map,
                            Addr areaBytes = paperAreaBytes);

    double channelOccupancy(NodeId from, NodeId to) const override;

  protected:
    Errc transportSend(const Message &msg) override;
    std::optional<Message> transportReceive(NodeId node) override;

  private:
    bool useIpi_;
    MsgCosts costs_;
    /** (from, to) -> ring. */
    std::map<std::pair<NodeId, NodeId>, std::unique_ptr<MessageRing>>
        rings_;

    MessageRing &ring(NodeId from, NodeId to);
};

/** Network (TCP/IP) transport model. */
class TcpMessageLayer final : public MessageLayer
{
  public:
    explicit TcpMessageLayer(Machine &machine, MsgCosts costs = {});

  protected:
    Errc transportSend(const Message &msg) override;
    std::optional<Message> transportReceive(NodeId node) override;

  private:
    MsgCosts costs_;
    std::map<NodeId, std::deque<Message>> queues_;
};

} // namespace stramash

#endif // STRAMASH_MSG_TRANSPORT_HH

#include "stramash/msg/transport.hh"

#include "stramash/common/units.hh"

namespace stramash
{

MessageLayer::MessageLayer(Machine &machine)
    : machine_(machine), stats_("msg")
{
}

void
MessageLayer::registerHandler(NodeId node, MsgHandler handler)
{
    handlers_[node] = std::move(handler);
}

bool
MessageLayer::resilient() const
{
    return machine_.faultInjector() != nullptr;
}

void
MessageLayer::cacheReply(std::uint32_t rpcId, const Message &resp)
{
    auto [it, fresh] = replyCache_.try_emplace(rpcId, resp);
    if (!fresh) {
        it->second = resp;
        return;
    }
    replyOrder_.push_back(rpcId);
    while (replyOrder_.size() > replyCacheCapacity) {
        replyCache_.erase(replyOrder_.front());
        replyOrder_.pop_front();
    }
}

Errc
MessageLayer::send(const Message &msg)
{
    panic_if(msg.from == msg.to, "message to self");
    // Crash-stop silencing: a dead node neither sends nor is sent to.
    // From the live sender's point of view the message just vanishes
    // (exactly like a wire drop); its retry/timeout machinery is what
    // notices the peer is gone.
    if (machine_.anyNodeDead() &&
        (!machine_.nodeAlive(msg.from) || !machine_.nodeAlive(msg.to))) {
        stats_.counter("dropped_dead_node") += 1;
        machine_.tracer().instant(
            TraceCategory::Chaos, "msg.drop_dead", msg.from, 0,
            static_cast<std::uint64_t>(msg.type), msg.to);
        return Errc::Ok;
    }
    Message m = msg;
    m.seq = ++seq_;
    FaultInjector *fi = machine_.faultInjector();
    if (fi) {
        // Response capture for at-most-once replay: the first
        // response-typed message a serving handler sends back to its
        // requester answers that rpc.
        if (!serveStack_.empty() && m.rpcId == 0 &&
            m.respondsTo == 0 && msgTypeIsResponse(m.type)) {
            ServeCtx &ctx = serveStack_.back();
            if (!ctx.responded && m.to == ctx.requester) {
                m.respondsTo = ctx.rpcId;
                ctx.responded = true;
            }
        }
        m.crc = m.computeCrc();
        if (m.respondsTo != 0)
            cacheReply(m.respondsTo, m);
    }
    if (!sentTotal_) {
        sentTotal_ = &stats_.counter("sent_total");
        bytesSent_ = &stats_.counter("bytes_sent");
        wireBytes_ = &stats_.histogram("wire_bytes", {64, 256, 1024, 4096});
    }
    Counter *&sentType = sentByType_[static_cast<unsigned>(m.type)];
    if (!sentType)
        sentType = &stats_.counter(std::string("sent.") +
                                   msgTypeName(m.type));
    *sentTotal_ += 1;
    *sentType += 1;
    *bytesSent_ += m.wireSize();
    wireBytes_->sample(m.wireSize());
    // The span covers the sender-side transport costs (ring stores /
    // stack copy); the event name is the message type so Perfetto
    // tracks read as a protocol timeline.
    STRAMASH_TRACE_SPAN(machine_.tracer(), TraceCategory::Msg,
                        msgTypeName(m.type), m.from, 0, m.seq,
                        m.wireSize());

    if (fi) {
        if (machine_.anyLinkImpaired()) {
            switch (machine_.linkState(m.from, m.to)) {
              case LinkState::Up:
                break;
              case LinkState::Severed:
                // Dead wire: the NIC did its work (the message counts
                // as sent) but nothing arrives, and the sender cannot
                // tell — its retry/timeout machinery is what notices.
                fi->partition().counter("msgs_dropped_severed") += 1;
                machine_.tracer().instant(
                    TraceCategory::Chaos, "link.msg_drop", m.from, 0,
                    static_cast<std::uint64_t>(m.type), m.to);
                return Errc::Ok;
              case LinkState::Lossy:
                if (fi->shouldDropOnLossyLink(m.from, m.to))
                    return Errc::Ok;
                break;
              case LinkState::Delayed:
                // Park in flight: the copy re-enters the transport
                // only once the receiver's clock has advanced past
                // the link delay (releaseDueParked), so a sustained
                // delay starves timeouts instead of stalling anyone.
                fi->partition().counter("msgs_parked") += 1;
                machine_.tracer().instant(
                    TraceCategory::Chaos, "link.msg_park", m.from, 0,
                    m.seq, m.to);
                parked_[m.to].push_back(
                    {machine_.node(m.to).cycles() +
                         FaultPlan::linkDelayCycles,
                     m});
                return Errc::Ok;
            }
        }
        if (fi->shouldDropMessage(m.from, m.to)) {
            // Lost on the wire: the sender cannot tell.
            return Errc::Ok;
        }
        Cycles delay = fi->messageDelayCycles(m.from, m.to);
        if (delay) {
            // Late delivery: the receiver's clock absorbs the delay.
            machine_.stall(m.to, delay);
        }
        bool pagePayload = m.type == MsgType::PageResponse ||
                           m.type == MsgType::ProcessPage;
        Message wire = m;
        if (fi->shouldCorruptPayload(m.from, m.to, pagePayload)) {
            // Damage the wire copy; the crc still describes the
            // original, so the receiver will detect the mismatch.
            fi->corrupt(wire.payload, wire.arg0);
        }
        Errc e = transportSend(wire);
        if (e != Errc::Ok) {
            stats_.counter("ring_full") += 1;
            machine_.tracer().instant(TraceCategory::Msg,
                                      "msg.ring_full", m.from, 0,
                                      m.seq, m.to);
            return e;
        }
        if (fi->shouldDuplicateMessage(m.from, m.to)) {
            // Second delivery with the same seq: the receiver's
            // dedup must swallow it.
            transportSend(wire);
        }
        return Errc::Ok;
    }

    Errc e = transportSend(m);
    if (e != Errc::Ok) {
        stats_.counter("ring_full") += 1;
        machine_.tracer().instant(TraceCategory::Msg, "msg.ring_full",
                                  m.from, 0, m.seq, m.to);
    }
    return e;
}

std::optional<Message>
MessageLayer::receive(NodeId node)
{
    Tracer &tracer = machine_.tracer();
    FaultInjector *fi = machine_.faultInjector();
    if (fi && !parked_.empty())
        releaseDueParked(node);
    for (;;) {
        Cycles start =
            tracer.enabledFor(TraceCategory::Msg) ? tracer.now(node)
                                                  : 0;
        auto m = transportReceive(node);
        if (!m)
            return std::nullopt;
        if (tracer.enabledFor(TraceCategory::Msg)) {
            tracer.emit(TraceCategory::Msg, "msg.recv", node, 0, start,
                        tracer.now(node), m->seq,
                        static_cast<std::uint64_t>(m->type));
        }
        if (!fi)
            return m;

        // Integrity: a payload the plan damaged fails its checksum
        // here and never reaches a handler.
        if (m->crc != 0 && m->crc != m->computeCrc()) {
            stats_.counter("crc_dropped") += 1;
            tracer.instant(TraceCategory::Chaos, "msg.crc_drop", node,
                           0, m->seq,
                           static_cast<std::uint64_t>(m->type));
            continue;
        }
        // Idempotent receive: per-channel seqs only move forward, so
        // a duplicated delivery is recognised and swallowed.
        auto [it, fresh] =
            lastSeq_.try_emplace(std::make_pair(m->from, m->to), 0);
        if (!fresh && m->seq <= it->second) {
            stats_.counter("dup_dropped") += 1;
            tracer.instant(TraceCategory::Chaos, "msg.dup_drop", node,
                           0, m->seq,
                           static_cast<std::uint64_t>(m->type));
            continue;
        }
        it->second = m->seq;
        return m;
    }
}

void
MessageLayer::releaseDueParked(NodeId node)
{
    auto it = parked_.find(node);
    if (it == parked_.end())
        return;
    Cycles now = machine_.node(node).cycles();
    std::deque<ParkedMsg> &q = it->second;
    // releaseAt is monotone per destination (constant link delay,
    // monotone receiver clock at park time), so the due messages are
    // exactly the front of the FIFO.
    while (!q.empty() && q.front().releaseAt <= now) {
        Message m = q.front().msg;
        q.pop_front();
        machine_.tracer().instant(TraceCategory::Chaos,
                                  "link.msg_release", node, 0, m.seq,
                                  m.from);
        if (transportSend(m) != Errc::Ok)
            stats_.counter("ring_full") += 1;
    }
    if (q.empty())
        parked_.erase(it);
}

void
MessageLayer::deliver(NodeId node, const Message &m)
{
    FaultInjector *fi = machine_.faultInjector();
    if (fi && m.rpcId != 0) {
        // A retried request whose first execution already answered:
        // replay the cached response instead of re-running the
        // handler (at-most-once execution).
        auto cached = replyCache_.find(m.rpcId);
        if (cached != replyCache_.end()) {
            fi->retries().counter("replayed_responses") += 1;
            machine_.tracer().instant(TraceCategory::Chaos,
                                      "rpc.replay", node, 0, m.rpcId,
                                      m.seq);
            send(cached->second);
            return;
        }
        serveStack_.push_back({m.from, m.rpcId, false});
        auto it = handlers_.find(node);
        panic_if(it == handlers_.end(), "no handler on node ", node);
        it->second(m);
        ServeCtx ctx = serveStack_.back();
        serveStack_.pop_back();
        if (!ctx.responded) {
            // One-way message sent reliably: acknowledge delivery so
            // the sender's retry loop can stand down.
            Message ack;
            ack.type = MsgType::Ack;
            ack.from = node;
            ack.to = ctx.requester;
            ack.respondsTo = ctx.rpcId;
            send(ack);
        }
        return;
    }
    auto it = handlers_.find(node);
    panic_if(it == handlers_.end(), "no handler on node ", node);
    it->second(m);
}

void
MessageLayer::dispatchPending(NodeId node)
{
    // A crashed kernel runs no pump: whatever is queued for it stays
    // queued until purgeQueues() discards it at declaration time.
    if (machine_.anyNodeDead() && !machine_.nodeAlive(node))
        return;
    for (;;) {
        auto m = receive(node);
        if (!m)
            return;
        deliver(node, *m);
    }
}

std::size_t
MessageLayer::purgeQueues(NodeId node)
{
    // Discard everything queued for a crashed node without running
    // handlers. The receive-side stalls land on the dead node's
    // frozen clock, so draining is free in simulated time.
    std::size_t purged = 0;
    while (auto m = transportReceive(node))
        ++purged;
    // Messages still parked on a delayed link die with the node too.
    if (auto it = parked_.find(node); it != parked_.end()) {
        purged += it->second.size();
        parked_.erase(it);
    }
    if (purged) {
        stats_.counter("purged_dead") +=
            static_cast<std::int64_t>(purged);
        machine_.tracer().instant(TraceCategory::Chaos, "msg.purge",
                                  node, 0, purged, node);
    }
    return purged;
}

std::optional<Message>
MessageLayer::tryRpc(const Message &req, MsgType respType)
{
    FaultInjector *fi = machine_.faultInjector();
    Message r = req;

    if (!fi) {
        // Fault-free fast path: one send, one dispatch, then drain
        // our own queue for the response.
        Errc e = send(r);
        if (e != Errc::Ok)
            return std::nullopt;
        dispatchPending(r.to);
        for (;;) {
            auto m = receive(r.from);
            if (!m)
                return std::nullopt;
            if (m->type == respType)
                return m;
            // Unrelated traffic: hand it to our own pump.
            deliver(r.from, *m);
        }
    }

    if (r.rpcId == 0)
        r.rpcId = ++nextRpcId_;
    pendingRpcs_.emplace(r.rpcId, std::nullopt);

    std::optional<Message> resp;
    for (unsigned attempt = 1; attempt <= RpcPolicy::maxAttempts;
         ++attempt) {
        if (attempt > 1) {
            fi->retries().counter("attempts") += 1;
            Cycles backoff = RpcPolicy::backoffForAttempt(attempt - 1);
            machine_.stall(r.from, backoff);
            machine_.tracer().instant(TraceCategory::Chaos,
                                      "rpc.retry", r.from, 0, r.rpcId,
                                      attempt);
        }
        send(r);
        // Drive the destination (delivery is synchronous), then
        // drain our own queue looking for the response.
        dispatchPending(r.to);
        for (;;) {
            auto m = receive(r.from);
            if (!m)
                break;
            if (m->respondsTo != 0) {
                auto slot = pendingRpcs_.find(m->respondsTo);
                if (slot != pendingRpcs_.end()) {
                    // Ours, or an outer rpc's that a nested call
                    // drained first: park it in the pending slot.
                    slot->second = *m;
                    continue;
                }
            }
            deliver(r.from, *m);
        }
        resp = pendingRpcs_[r.rpcId];
        if (resp)
            break;
        // Nothing matched: charge the simulated-cycle deadline and
        // go around for another attempt.
        fi->retries().counter("timeouts") += 1;
        machine_.stall(r.from, RpcPolicy::responseTimeoutCycles);
        machine_.tracer().instant(TraceCategory::Chaos, "rpc.timeout",
                                  r.from, 0, r.rpcId, attempt);
    }
    pendingRpcs_.erase(r.rpcId);
    if (!resp) {
        fi->retries().counter("gave_up") += 1;
        machine_.tracer().instant(TraceCategory::Chaos, "rpc.gave_up",
                                  r.from, 0, r.rpcId,
                                  static_cast<std::uint64_t>(r.type));
    }
    return resp;
}

Errc
MessageLayer::sendReliable(const Message &msg, bool dispatchNow)
{
    if (!machine_.faultInjector()) {
        // Historical fire-and-forget behaviour, bit for bit.
        Errc e = send(msg);
        if (dispatchNow)
            dispatchPending(msg.to);
        return e;
    }
    auto resp = tryRpc(msg, MsgType::Ack);
    return resp ? Errc::Ok : Errc::Unreachable;
}

void
MessageLayer::resetCounters()
{
    stats_.resetAll();
}

// ===================== ShmMessageLayer ===============================

ShmMessageLayer::ShmMessageLayer(Machine &machine, Addr areaBase,
                                 bool useIpi)
    : MessageLayer(machine), useIpi_(useIpi),
      nodes_(machine.nodeCount()), rings_(nodes_ * nodes_)
{
    // One ring per ordered node pair, splitting the area evenly.
    std::size_t pairs = nodes_ * (nodes_ - 1);
    panic_if(pairs == 0, "SHM messaging needs >= 2 nodes");
    Addr perRing = paperAreaBytes / pairs;
    Addr base = areaBase;
    for (NodeId f = 0; f < nodes_; ++f) {
        for (NodeId t = 0; t < nodes_; ++t) {
            if (f == t)
                continue;
            rings_[f * nodes_ + t] =
                std::make_unique<MessageRing>(machine, base, perRing);
            base += perRing;
        }
    }
}

Addr
ShmMessageLayer::areaBaseFor(const PhysMap &map)
{
    if (map.model() == MemoryModel::Shared) {
        auto pools = map.poolRanges();
        panic_if(pools.empty() ||
                     pools.front().size() < paperAreaBytes,
                 "messaging area (", paperAreaBytes,
                 " bytes) does not fit the shared pool");
        return pools.front().start;
    }
    // Separated / FullyShared: node 0's lowest DRAM range (its boot
    // strip — bootRanges() is sorted ascending).
    auto boots = map.bootRanges(0);
    panic_if(boots.empty(),
             "node 0 has no DRAM to host the messaging area");
    AddrRange strip = boots.front();
    panic_if(strip.size() <= paperAreaBytes, "messaging area (",
             paperAreaBytes, " bytes) does not fit node 0's boot strip");
    return std::min(strip.start + 1_GiB, strip.end - paperAreaBytes);
}

Errc
ShmMessageLayer::transportSend(const Message &msg)
{
    machine_.stall(msg.from, costs_.sendSetupCycles);
    panic_if(msg.from >= nodes_ || msg.to >= nodes_, "no ring ",
             msg.from, "->", msg.to);
    MessageRing &r = *rings_[msg.from * nodes_ + msg.to];
    if (!r.enqueue(msg.from, msg))
        return Errc::RingFull;
    // Post-enqueue depth: the queue-depth distribution an admission
    // controller needs to see to size its shed threshold.
    if (!ringDepth_)
        ringDepth_ = &stats_.histogram("ring_depth",
                                       {1, 2, 4, 8, 16, 32, 64, 128});
    ringDepth_->sample(r.size());
    if (useIpi_)
        machine_.sendIpi(msg.from, msg.to);
    return Errc::Ok;
}

std::optional<Message>
ShmMessageLayer::transportReceive(NodeId node)
{
    // Check every ring that targets this node, by ascending sender.
    panic_if(node >= nodes_, "no rings into node ", node);
    for (NodeId from = 0; from < nodes_; ++from) {
        if (from == node)
            continue;
        auto m = rings_[from * nodes_ + node]->dequeue(node);
        if (m) {
            machine_.stall(node, costs_.handlerCycles);
            return m;
        }
    }
    return std::nullopt;
}

// ===================== TcpMessageLayer ===============================

TcpMessageLayer::TcpMessageLayer(Machine &machine)
    : MessageLayer(machine)
{
}

Errc
TcpMessageLayer::transportSend(const Message &msg)
{
    // Sender: stack setup plus per-byte copy through the NIC path.
    Cycles copy = static_cast<Cycles>(
        static_cast<double>(msg.wireSize()) * costs_.tcpPerByteCycles);
    machine_.stall(msg.from, costs_.sendSetupCycles + copy);
    queues_[msg.to].push_back(msg);
    return Errc::Ok;
}

std::optional<Message>
TcpMessageLayer::transportReceive(NodeId node)
{
    auto &q = queues_[node];
    if (q.empty())
        return std::nullopt;
    Message m = q.front();
    q.pop_front();
    // Receiver pays propagation (one way), stack copy, and handler
    // dispatch. Two messages (request + response) sum to the paper's
    // 75 us round trip.
    const Node &n = machine_.node(node);
    Cycles prop = usToCycles(costs_.tcpOneWayUs, n.profile().ghz);
    Cycles copy = static_cast<Cycles>(
        static_cast<double>(m.wireSize()) * costs_.tcpPerByteCycles);
    machine_.stall(node, prop + copy + costs_.handlerCycles);
    return m;
}

} // namespace stramash

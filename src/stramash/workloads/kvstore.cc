#include "stramash/workloads/kvstore.hh"

namespace stramash
{

const char *
kvOpName(KvOp op)
{
    switch (op) {
      case KvOp::Get: return "get";
      case KvOp::Set: return "set";
      case KvOp::LPush: return "lpush";
      case KvOp::RPush: return "rpush";
      case KvOp::LPop: return "lpop";
      case KvOp::RPop: return "rpop";
      case KvOp::SAdd: return "sadd";
      case KvOp::MSet: return "mset";
    }
    panic("unknown KvOp");
}

const std::vector<KvOp> &
allKvOps()
{
    static const std::vector<KvOp> ops{
        KvOp::Get,  KvOp::Set,  KvOp::LPush, KvOp::RPush,
        KvOp::LPop, KvOp::RPop, KvOp::SAdd,  KvOp::MSet,
    };
    return ops;
}

void
serveForwardedSockets(KernelInstance &k, MessageLayer &msg)
{
    k.registerMsgHandler(
        MsgType::AppRequest, [&k, &msg](const Message &m) {
            k.machine().stall(k.nodeId(), KvStore::stackCycles);
            Message resp;
            resp.type = MsgType::AppResponse;
            resp.from = k.nodeId();
            resp.to = m.from;
            resp.arg0 = m.arg0;
            msg.send(resp);
        });
}

bool
forwardSocketOp(System &sys, NodeId from, NodeId sock, Pid pid)
{
    Machine &machine = sys.machine();
    if (from == sock) {
        // Local service: just the stack work.
        machine.stall(from, KvStore::stackCycles);
        return true;
    }
    if (sys.config().osDesign == OsDesign::MultipleKernel) {
        // Shared-nothing forwarding: two messages per request.
        Message req;
        req.type = MsgType::AppRequest;
        req.from = from;
        req.to = sock;
        req.arg0 = pid;
        return sys.msg().tryRpc(req, MsgType::AppResponse).has_value();
    }
    // Fused forwarding: drive the socket's node-side state directly —
    // descriptor read, doorbell write (fused MMIO, §7.4) — then one
    // IPI; the socket's node runs half a stack pass. A severed
    // *message* link does not impair this path: the doorbell rides
    // coherent memory, and a swallowed IPI only costs the socket's
    // node its wakeup (it polls the descriptor anyway).
    KernelInstance &sk = sys.kernel(sock);
    machine.dataAccess(from, AccessType::Load, sk.dataAddrFor(0x50cce7),
                       64);
    machine.dataAccess(from, AccessType::Store,
                       sk.dataAddrFor(0xd00b311), 64);
    machine.stall(from, 2 * KvStore::remoteMmioCycles);
    machine.sendIpi(from, sock);
    machine.stall(sock, KvStore::stackCycles / 2);
    return true;
}

KvStore::KvStore(App &server, std::size_t numKeys,
                 std::size_t payloadBytes)
    : app_(server),
      originNode_(server.where()),
      numKeys_(numKeys),
      payload_(payloadBytes)
{
    // The origin kernel answers forwarded socket operations for the
    // multiple-kernel design.
    System &sys = app_.system();
    serveForwardedSockets(sys.kernel(originNode_), sys.msg());

    slotBytes_ = ((payload_ + 8 + cacheLineSize - 1) / cacheLineSize) *
                 cacheLineSize;
    listCap_ = numKeys_;
    kvBase_ = app_.mmap(numKeys_ * slotBytes_, true, VmaKind::Anon,
                        "kv_slots");
    listBase_ = app_.mmap(listCap_ * slotBytes_, true, VmaKind::Anon,
                          "kv_list");
    listHdr_ = app_.mmap(pageSize, true, VmaKind::Anon, "kv_list_hdr");
    setBase_ = app_.mmap(numKeys_ / 8 + numKeys_ * slotBytes_, true,
                         VmaKind::Anon, "kv_set");
}

Addr
KvStore::slotAddr(std::uint64_t key) const
{
    return kvBase_ + (key % numKeys_) * slotBytes_;
}

void
KvStore::populate()
{
    std::vector<std::uint8_t> v(payload_, 0xab);
    for (std::uint64_t k = 0; k < numKeys_; ++k) {
        app_.write<std::uint64_t>(slotAddr(k), k ^ 0xdb);
        app_.writeBuf(slotAddr(k) + 8, v.data(), payload_);
    }
    // Half-full list so pops have something to take.
    app_.write<std::uint64_t>(listHdr_, 0);                // head
    app_.write<std::uint64_t>(listHdr_ + 8, numKeys_ / 2); // tail
    for (std::uint64_t i = 0; i < numKeys_ / 2; ++i)
        app_.writeBuf(listBase_ + i * slotBytes_, v.data(), payload_);
}

void
KvStore::chargeRequestOverhead()
{
    // Protocol parse, dispatch, reply serialisation: identical
    // across OS designs.
    app_.compute(2500);
    socketRoundTrip();
}

void
KvStore::socketRoundTrip()
{
    System &sys = app_.system();
    NodeId cur = app_.where();
    if (!sys.isNodeAlive(originNode_)) {
        // The server-socket node crashed: crash recovery re-homed the
        // task (fused) or re-pointed its origin (survivor-side
        // Popcorn); fail the socket over to the task's current home
        // and keep serving.
        originNode_ = sys.kernel(cur).task(app_.pid()).origin;
        if (!sys.isNodeAlive(originNode_))
            originNode_ = cur;
        if (CrashManager *cm = sys.crashManager())
            cm->recovery().counter("kv_socket_failovers") += 1;
    }
    if (!forwardSocketOp(sys, cur, originNode_, app_.pid()))
        panic("kv-store: socket node ", originNode_, " never answered");
}

void
KvStore::exec(KvOp op, std::uint64_t key, const std::uint8_t *payload)
{
    static const std::vector<std::uint8_t> defaultPayload(4096, 0x5c);
    if (!payload)
        payload = defaultPayload.data();
    chargeRequestOverhead();

    switch (op) {
      case KvOp::Get: {
        std::vector<std::uint8_t> out(payload_);
        app_.readBuf(slotAddr(key) + 8, out.data(), payload_);
        break;
      }
      case KvOp::Set: {
        app_.write<std::uint64_t>(slotAddr(key), key ^ 0xdb);
        app_.writeBuf(slotAddr(key) + 8, payload, payload_);
        break;
      }
      case KvOp::LPush: {
        std::uint64_t head = app_.read<std::uint64_t>(listHdr_);
        head = (head + listCap_ - 1) % listCap_;
        app_.writeBuf(listBase_ + head * slotBytes_, payload,
                      payload_);
        app_.write<std::uint64_t>(listHdr_, head);
        break;
      }
      case KvOp::RPush: {
        std::uint64_t tail = app_.read<std::uint64_t>(listHdr_ + 8);
        app_.writeBuf(listBase_ + (tail % listCap_) * slotBytes_,
                      payload, payload_);
        app_.write<std::uint64_t>(listHdr_ + 8,
                                  (tail + 1) % listCap_);
        break;
      }
      case KvOp::LPop: {
        std::uint64_t head = app_.read<std::uint64_t>(listHdr_);
        std::vector<std::uint8_t> out(payload_);
        app_.readBuf(listBase_ + head * slotBytes_, out.data(),
                     payload_);
        app_.write<std::uint64_t>(listHdr_, (head + 1) % listCap_);
        break;
      }
      case KvOp::RPop: {
        std::uint64_t tail = app_.read<std::uint64_t>(listHdr_ + 8);
        tail = (tail + listCap_ - 1) % listCap_;
        std::vector<std::uint8_t> out(payload_);
        app_.readBuf(listBase_ + tail * slotBytes_, out.data(),
                     payload_);
        app_.write<std::uint64_t>(listHdr_ + 8, tail);
        break;
      }
      case KvOp::SAdd: {
        std::uint64_t idx = key % numKeys_;
        Addr bitWord = setBase_ + (idx / 64) * 8;
        std::uint64_t bits = app_.read<std::uint64_t>(bitWord);
        bits |= std::uint64_t{1} << (idx % 64);
        app_.write<std::uint64_t>(bitWord, bits);
        app_.writeBuf(setBase_ + numKeys_ / 8 + idx * slotBytes_,
                      payload, payload_);
        break;
      }
      case KvOp::MSet: {
        for (int i = 0; i < 4; ++i) {
            std::uint64_t k = key + static_cast<std::uint64_t>(i) * 97;
            app_.write<std::uint64_t>(slotAddr(k), k ^ 0xdb);
            app_.writeBuf(slotAddr(k) + 8, payload, payload_);
        }
        break;
      }
    }
}

Cycles
KvStore::measureRound(KvOp op, unsigned requests, Rng &rng)
{
    System &sys = app_.system();
    Cycles before = sys.runtime();
    for (unsigned i = 0; i < requests; ++i)
        exec(op, rng.below64(numKeys_), nullptr);
    return sys.runtime() - before;
}

std::vector<std::uint8_t>
KvStore::getValue(std::uint64_t key)
{
    std::vector<std::uint8_t> out(payload_);
    app_.readBuf(slotAddr(key) + 8, out.data(), payload_);
    return out;
}

std::size_t
KvStore::listLength()
{
    std::uint64_t head = app_.read<std::uint64_t>(listHdr_);
    std::uint64_t tail = app_.read<std::uint64_t>(listHdr_ + 8);
    return (tail + listCap_ - head) % listCap_;
}

} // namespace stramash

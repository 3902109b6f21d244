#include "stramash/workloads/sharded_kvstore.hh"

#include <algorithm>

namespace stramash
{

ShardedKvStore::ShardedKvStore(System &sys, ShardedKvConfig cfg)
    : sys_(sys),
      cfg_(cfg),
      rng_(cfg.seed, 0x5a4d),
      slotBytes_(((cfg.payloadBytes + 8 + cacheLineSize - 1) /
                  cacheLineSize) *
                 cacheLineSize)
{
    panic_if(cfg_.keysPerShard == 0, "sharded kv: empty shards");

    // Each kernel answers forwarded socket operations for the
    // multiple-kernel design, exactly like the Figure-14 origin.
    MessageLayer *msg = &sys_.msg();
    for (NodeId n = 0; n < sys_.nodeCount(); ++n) {
        KernelInstance *k = &sys_.kernel(n);
        k->registerMsgHandler(
            MsgType::AppRequest, [k, msg](const Message &m) {
                k->machine().stall(k->nodeId(), KvStore::stackCycles);
                Message resp;
                resp.type = MsgType::AppResponse;
                resp.from = k->nodeId();
                resp.to = m.from;
                resp.arg0 = m.arg0;
                msg->send(resp);
            });
    }

    // One server task per shard (shards = nodes). The placer decides
    // where each lives; without one, shard s stays on node s like the
    // historical hard-coded layout.
    for (NodeId s = 0; s < sys_.nodeCount(); ++s) {
        NodeId node = s;
        if (cfg_.placer) {
            PlacementHints hints;
            hints.footprintBytes = cfg_.keysPerShard * slotBytes_;
            node = cfg_.placer->place(hints);
        }
        serverNode_.push_back(node);
        servers_.push_back(std::make_unique<App>(sys_, node));
        slabs_.push_back(servers_.back()->mmap(
            cfg_.keysPerShard * slotBytes_, true, VmaKind::Anon,
            "kv_shard"));
    }
    expected_.assign(servers_.size(),
                     std::vector<std::uint64_t>(cfg_.keysPerShard, 0));
    payload_.resize(cfg_.payloadBytes);
    breakerOpen_.assign(servers_.size(), 0);
}

Addr
ShardedKvStore::slotAddr(NodeId shard, std::uint64_t key) const
{
    std::uint64_t idx = (key / servers_.size()) % cfg_.keysPerShard;
    return slabs_[shard] + idx * slotBytes_;
}

void
ShardedKvStore::populate()
{
    std::vector<std::uint8_t> v(cfg_.payloadBytes, 0xab);
    for (NodeId s = 0; s < servers_.size(); ++s) {
        App &app = *servers_[s];
        for (std::uint64_t i = 0; i < cfg_.keysPerShard; ++i) {
            std::uint64_t tag = (i << 8) ^ s ^ 0xdb;
            Addr slot = slabs_[s] + i * slotBytes_;
            app.write<std::uint64_t>(slot, tag);
            app.writeBuf(slot + 8, v.data(), cfg_.payloadBytes);
            expected_[s][i] = tag;
        }
    }
}

Errc
ShardedKvStore::ingressPath(NodeId ingress, NodeId shard)
{
    Machine &machine = sys_.machine();
    NodeId owner = serverNode_[shard];
    if (ingress == owner) {
        // Local service: just the ingress-side stack work.
        machine.stall(ingress, KvStore::stackCycles);
        return Errc::Ok;
    }
    ++crossShard_;
    if (sys_.config().osDesign == OsDesign::MultipleKernel) {
        if (breakerOpen_[shard]) {
            if (machine.linkState(ingress, owner) != LinkState::Up ||
                machine.linkState(owner, ingress) != LinkState::Up) {
                // Breaker open and the link still impaired: fast-fail
                // without re-paying the full timeout/backoff budget.
                ++unreachable_;
                return Errc::Unreachable;
            }
            breakerOpen_[shard] = 0;
        }
        // Shared-nothing forwarding: two messages per request. The
        // resilient tryRpc is the historical rpc() bit-for-bit when
        // no fault injector is attached.
        Message req;
        req.type = MsgType::AppRequest;
        req.from = ingress;
        req.to = owner;
        req.arg0 = servers_[shard]->pid();
        if (!sys_.msg().tryRpc(req, MsgType::AppResponse)) {
            // Every retry timed out: open the breaker so the next
            // requests to this owner shed cheaply until the link
            // heals.
            breakerOpen_[shard] = 1;
            ++unreachable_;
            return Errc::Unreachable;
        }
        return Errc::Ok;
    }
    // Fused forwarding: the ingress kernel drives the owner's socket
    // state directly — descriptor read, doorbell write (fused MMIO,
    // §7.4) — then one IPI; the owner runs half a stack pass. A
    // severed *message* link does not impair this path: the doorbell
    // rides coherent memory, and the swallowed IPI only costs the
    // owner its wakeup (it polls the descriptor anyway) — the fused
    // design serves straight through a network partition.
    KernelInstance &ownerK = sys_.kernel(owner);
    machine.dataAccess(ingress, AccessType::Load,
                       ownerK.dataAddrFor(0x50cce7), 64);
    machine.dataAccess(ingress, AccessType::Store,
                       ownerK.dataAddrFor(0xd00b311), 64);
    machine.stall(ingress, 2 * KvStore::remoteMmioCycles);
    machine.sendIpi(ingress, owner);
    machine.stall(owner, KvStore::stackCycles / 2);
    return Errc::Ok;
}

Errc
ShardedKvStore::exec(KvOp op, std::uint64_t key, NodeId ingress)
{
    NodeId shard = shardOf(key);
    // Shed before any charge or mirror update: a dead or fenced node
    // must not acknowledge work it could lose. The caller sees
    // Errc::Degraded; the host-side mirror never learns of the
    // request, which is what makes "zero acknowledged-write loss"
    // checkable by verify().
    if (!sys_.acceptsWork(ingress) ||
        !sys_.acceptsWork(serverNode_[shard])) {
        ++shed_;
        return Errc::Degraded;
    }
    if (Errc e = ingressPath(ingress, shard); e != Errc::Ok) {
        ++shed_;
        return e;
    }

    // The shard owner executes the operation against its own slab;
    // protocol parse/dispatch/reply is charged there like the
    // single-server experiment does.
    App &app = *servers_[shard];
    app.compute(2500);
    Addr slot = slotAddr(shard, key);
    switch (op) {
      case KvOp::Get: {
        app.readBuf(slot + 8, payload_.data(), cfg_.payloadBytes);
        break;
      }
      case KvOp::Set: {
        std::uint64_t tag = key ^ (served_ << 16) ^ 0xdb;
        std::fill(payload_.begin(), payload_.end(),
                  static_cast<std::uint8_t>(key));
        app.write<std::uint64_t>(slot, tag);
        app.writeBuf(slot + 8, payload_.data(), cfg_.payloadBytes);
        expected_[shard][(key / servers_.size()) % cfg_.keysPerShard] =
            tag;
        break;
      }
      default:
        panic("sharded kv: only Get/Set are part of the scaling "
              "experiment");
    }
    ++served_;
    return Errc::Ok;
}

Cycles
ShardedKvStore::run(std::uint64_t totalRequests)
{
    Cycles before = sys_.machine().maxRuntime();
    std::size_t n = servers_.size();
    for (std::uint64_t r = 0; r < totalRequests; ++r) {
        std::uint64_t key =
            rng_.below64(n * cfg_.keysPerShard);
        KvOp op = (r & 1) ? KvOp::Set : KvOp::Get;
        exec(op, key, static_cast<NodeId>(r % n));
    }
    return sys_.machine().maxRuntime() - before;
}

bool
ShardedKvStore::verify()
{
    for (NodeId s = 0; s < servers_.size(); ++s) {
        App &app = *servers_[s];
        for (std::uint64_t i = 0; i < cfg_.keysPerShard; ++i) {
            Addr slot = slabs_[s] + i * slotBytes_;
            if (app.read<std::uint64_t>(slot) != expected_[s][i])
                return false;
        }
    }
    return true;
}

} // namespace stramash

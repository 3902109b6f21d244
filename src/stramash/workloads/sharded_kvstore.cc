#include "stramash/workloads/sharded_kvstore.hh"

#include <algorithm>

namespace stramash
{

ShardedKvStore::ShardedKvStore(System &sys, ShardedKvConfig cfg)
    : sys_(sys),
      cfg_(cfg),
      rng_(cfg.seed, 0x5a4d),
      slotBytes_(((payloadBytes + 8 + cacheLineSize - 1) /
                  cacheLineSize) *
                 cacheLineSize)
{
    panic_if(cfg_.keysPerShard == 0, "sharded kv: empty shards");

    // Each kernel answers forwarded socket operations for the
    // multiple-kernel design, exactly like the Figure-14 origin.
    for (NodeId n = 0; n < sys_.nodeCount(); ++n)
        serveForwardedSockets(sys_.kernel(n), sys_.msg());

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
    payload_.resize(payloadBytes);
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
    std::vector<std::uint8_t> v(payloadBytes, 0xab);
    for (NodeId s = 0; s < servers_.size(); ++s) {
        App &app = *servers_[s];
        for (std::uint64_t i = 0; i < cfg_.keysPerShard; ++i) {
            std::uint64_t tag = (i << 8) ^ s ^ 0xdb;
            Addr slot = slabs_[s] + i * slotBytes_;
            app.write<std::uint64_t>(slot, tag);
            app.writeBuf(slot + 8, v.data(), payloadBytes);
            expected_[s][i] = tag;
        }
    }
}

Errc
ShardedKvStore::ingressPath(NodeId ingress, NodeId shard)
{
    NodeId owner = serverNode_[shard];
    if (ingress != owner) {
        ++crossShard_;
        if (breakerOpen_[shard]) {
            Machine &machine = sys_.machine();
            if (machine.linkState(ingress, owner) != LinkState::Up ||
                machine.linkState(owner, ingress) != LinkState::Up) {
                // Breaker open and the link still impaired: fast-fail
                // without re-paying the full timeout/backoff budget.
                ++unreachable_;
                return Errc::Unreachable;
            }
            breakerOpen_[shard] = 0;
        }
    }
    if (!forwardSocketOp(sys_, ingress, owner, servers_[shard]->pid())) {
        // Every retry timed out: open the breaker so the next
        // requests to this owner shed cheaply until the link heals.
        breakerOpen_[shard] = 1;
        ++unreachable_;
        return Errc::Unreachable;
    }
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
        app.readBuf(slot + 8, payload_.data(), payloadBytes);
        break;
      }
      case KvOp::Set: {
        std::uint64_t tag = key ^ (served_ << 16) ^ 0xdb;
        std::fill(payload_.begin(), payload_.end(),
                  static_cast<std::uint8_t>(key));
        app.write<std::uint64_t>(slot, tag);
        app.writeBuf(slot + 8, payload_.data(), payloadBytes);
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

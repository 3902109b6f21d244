/**
 * @file
 * A sharded, multi-node kv-store: the N-node scaling companion of the
 * Figure-14 single-server experiment (workloads/kvstore).
 *
 * One server task per topology node owns one shard of the key space
 * (shard = key % N) and never migrates; requests arrive round-robin
 * at every node's ingress socket. A request whose shard lives on the
 * ingress node is served locally. A cross-shard request is forwarded
 * to the shard owner the way each OS design can: the fused design
 * drives the owner's socket state directly through coherent shared
 * memory plus one IPI (§7.4), the multiple-kernel design pays a
 * two-message RPC through the transport. The owner then executes the
 * operation against its local slab.
 *
 * Work distributes across the per-node clocks, so aggregate
 * throughput (requests per max-node-runtime) scales with node count
 * — the curve bench/bench_scaling.cc sweeps. Like the paper's §9.2.8
 * runs these are functional-mode experiments (cache plugin off), and
 * every value written is mirrored host-side so a run can be verified
 * end to end.
 */

#ifndef STRAMASH_WORKLOADS_SHARDED_KVSTORE_HH
#define STRAMASH_WORKLOADS_SHARDED_KVSTORE_HH

#include <memory>

#include "stramash/common/rng.hh"
#include "stramash/core/app.hh"
#include "stramash/core/placement.hh"
#include "stramash/workloads/kvstore.hh"

namespace stramash
{

struct ShardedKvConfig
{
    /** Keys per shard (global key space = shards * keysPerShard). */
    std::size_t keysPerShard = 64;
    /** Places each shard's server task (footprint = the shard slab).
     *  Null keeps the historical identity mapping: shard s on node
     *  s. */
    Placer *placer = nullptr;
    /** Request-stream seed (key choice and get/set mix). */
    std::uint64_t seed = 7;
};

class ShardedKvStore
{
  public:
    /** Stands up one server task per node of @p sys. */
    explicit ShardedKvStore(System &sys, ShardedKvConfig cfg = {});

    /** Write the initial value of every slot in every shard. */
    void populate();

    /** Number of shards (= nodes). */
    std::size_t shards() const { return servers_.size(); }

    NodeId
    shardOf(std::uint64_t key) const
    {
        return static_cast<NodeId>(key % servers_.size());
    }

    /** The node @p shard's server task was placed on (identity when
     *  no Placer was configured). */
    NodeId serverNode(NodeId shard) const { return serverNode_[shard]; }

    /** The node serving @p key: serverNode(shardOf(key)). */
    NodeId
    ownerNodeOf(std::uint64_t key) const
    {
        return serverNode_[shardOf(key)];
    }

    /**
     * Serve one request arriving at @p ingress. Only Get and Set are
     * part of the scaling experiment.
     *
     * @return Ok when served. Degraded when the ingress or the shard
     *         owner is dead or partition-fenced — the request is shed
     *         *before* any work or mirror update, so a fenced shard
     *         never acknowledges a write it could lose. Unreachable /
     *         Timeout when a Popcorn cross-shard forward exhausted
     *         its retries (the write never reached the owner and the
     *         mirror is untouched: nothing acknowledged, nothing
     *         lost).
     */
    Errc exec(KvOp op, std::uint64_t key, NodeId ingress);

    // ---- hooks for the open-loop front end (stramash/load) ----

    std::size_t keysPerShard() const { return cfg_.keysPerShard; }
    /** Value size in bytes. */
    static constexpr std::size_t payloadBytes = 256;
    /** Global key-space size (shards * keysPerShard). */
    std::size_t keySpace() const
    {
        return servers_.size() * cfg_.keysPerShard;
    }

    /** Guest address of @p key's slot inside its owner's slab. */
    Addr slotAddr(NodeId shard, std::uint64_t key) const;

    /**
     * The current tag word of @p key's slot (host-side mirror; no
     * simulated cost). A hot-key cache validates its copy against
     * this — the fused design by one coherent load of the slot's
     * version line, which is what makes its invalidation nearly
     * free.
     */
    std::uint64_t
    currentTag(std::uint64_t key) const
    {
        NodeId owner = shardOf(key);
        return expected_[owner]
                        [(key / servers_.size()) % cfg_.keysPerShard];
    }

    System &system() { return sys_; }

    /**
     * Serve @p totalRequests from the seeded request stream, ingress
     * round-robin across nodes.
     * @return the max-node-runtime delta the batch cost.
     */
    Cycles run(std::uint64_t totalRequests);

    /** Re-read every slot and compare against the host-side mirror.
     *  @return true when nothing was lost or corrupted. */
    bool verify();

    std::uint64_t requestsServed() const { return served_; }
    std::uint64_t crossShardRequests() const { return crossShard_; }
    /** Requests shed because a node was dead or partition-fenced. */
    std::uint64_t requestsShed() const { return shed_; }
    /** Popcorn forwards refused by the ingress circuit breaker or
     *  given up after exhausting the RPC retry budget. */
    std::uint64_t unreachableForwards() const { return unreachable_; }

  private:
    System &sys_;
    ShardedKvConfig cfg_;
    Rng rng_;
    std::size_t slotBytes_;
    std::vector<std::unique_ptr<App>> servers_;
    /** Shard -> node its server runs on. */
    std::vector<NodeId> serverNode_;
    /** Per-shard slab base (in that server's address space). */
    std::vector<Addr> slabs_;
    /** Host-side mirror of every slot's tag word, for verify(). */
    std::vector<std::vector<std::uint64_t>> expected_;
    /** Reused payload buffer (no per-request allocation). */
    std::vector<std::uint8_t> payload_;
    std::uint64_t served_ = 0;
    std::uint64_t crossShard_ = 0;
    std::uint64_t shed_ = 0;
    std::uint64_t unreachable_ = 0;
    /** Per-owner circuit breaker for Popcorn forwards: opened by a
     *  failed tryRpc, re-closed when the chaos layer reports the
     *  ingress<->owner links Up again (standing in for a background
     *  probe). While open, forwards fast-fail instead of burning the
     *  full retry/backoff budget per request. */
    std::vector<std::uint8_t> breakerOpen_;

    /** Ingress-side socket work, plus forwarding when @p shard's
     *  server lives on another node. */
    Errc ingressPath(NodeId ingress, NodeId shard);
};

} // namespace stramash

#endif // STRAMASH_WORKLOADS_SHARDED_KVSTORE_HH

/**
 * @file
 * The network-serving application experiment (paper §9.2.8,
 * Figure 14): a Redis-like in-memory store whose server thread
 * migrates to the other ISA and keeps serving requests from there.
 *
 * The store's data structures live in guest memory and are accessed
 * through the server's address space, so every request's processing
 * cost reflects the OS design under test: Popcorn replicates DB
 * pages through its messaging layer (TCP or SHM rings), Stramash
 * reaches them directly through coherent shared memory. As in the
 * paper, these runs are functional validation: the cache plugin is
 * disabled and only request processing time is compared.
 */

#ifndef STRAMASH_WORKLOADS_KVSTORE_HH
#define STRAMASH_WORKLOADS_KVSTORE_HH

#include "stramash/common/rng.hh"
#include "stramash/core/app.hh"

namespace stramash
{

/** Request kinds from the paper's Figure 14. */
enum class KvOp : std::uint8_t
{
    Get,
    Set,
    LPush,
    RPush,
    LPop,
    RPop,
    SAdd,
    MSet,
};

const char *kvOpName(KvOp op);
const std::vector<KvOp> &allKvOps();

/**
 * Let @p k answer socket operations forwarded to it over the
 * messaging layer (the multiple-kernel design): one stack pass, then
 * an AppResponse.
 */
void serveForwardedSockets(KernelInstance &k, MessageLayer &msg);

/**
 * Drive one socket operation of @p pid from node @p from on the
 * socket that lives on node @p sock. Local: the stack work. Fused:
 * drive the socket's descriptor and doorbell directly through
 * coherent memory (fused MMIO, §7.4), one IPI, half a stack pass at
 * @p sock. Popcorn: an AppRequest RPC that @p sock answers.
 * @return false when the RPC gave up (retries exhausted).
 */
bool forwardSocketOp(System &sys, NodeId from, NodeId sock, Pid pid);

class KvStore
{
  public:
    /**
     * @param payloadBytes value size (paper: 1024 B)
     */
    KvStore(App &server, std::size_t numKeys,
            std::size_t payloadBytes = 1024);

    /** Build the database at the server's current node. */
    void populate();

    /** Process one request; payload may be null for read ops. */
    void exec(KvOp op, std::uint64_t key, const std::uint8_t *payload);

    /**
     * Serve @p requests of @p op with random keys and measure the
     * in-server processing time, as the paper's modified
     * Redis-server does.
     */
    Cycles measureRound(KvOp op, unsigned requests, Rng &rng);

    /** Read a value back (for functional checks). */
    std::vector<std::uint8_t> getValue(std::uint64_t key);

    std::size_t listLength();

    /** Origin-side network stack work per request. */
    static constexpr Cycles stackCycles = 8000;
    /** One remote MMIO/doorbell access (fused direct device path). */
    static constexpr Cycles remoteMmioCycles = 2000;

  private:
    App &app_;
    NodeId originNode_;
    std::size_t numKeys_;
    std::size_t payload_;
    std::size_t slotBytes_;
    Addr kvBase_ = 0;
    Addr listBase_ = 0;
    Addr listHdr_ = 0;
    Addr setBase_ = 0;
    std::size_t listCap_ = 0;

    Addr slotAddr(std::uint64_t key) const;

    /** Per-request fixed server-side work (parse, dispatch, reply). */
    void chargeRequestOverhead();

    /**
     * The socket lives at the origin (a migrated thread cannot take
     * its socket along — the Popcorn limitation that shaped §9.2.8),
     * so each request's socket I/O reaches the origin through
     * forwardSocketOp().
     */
    void socketRoundTrip();
};

} // namespace stramash

#endif // STRAMASH_WORKLOADS_KVSTORE_HH

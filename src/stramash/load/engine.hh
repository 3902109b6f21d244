/**
 * @file
 * The open-loop traffic engine: a seeded arrival process, a seeded
 * key chooser, and a seeded op/ingress mix, driven through a
 * KvFrontEnd on a global simulated timeline.
 *
 * Open-loop means arrivals do NOT wait for completions — the
 * timeline is fixed up front by the arrival process, exactly like
 * production traffic hitting a service. Past the saturation point
 * the queues grow, admission control sheds, and tail latency
 * explodes; a closed-loop driver (like ShardedKvStore::run) can
 * never show that regime because each client politely waits.
 *
 * Everything is seeded: identical configs produce bit-identical
 * request streams and therefore bit-identical reports.
 */

#ifndef STRAMASH_LOAD_ENGINE_HH
#define STRAMASH_LOAD_ENGINE_HH

#include "stramash/load/arrival.hh"
#include "stramash/load/keydist.hh"
#include "stramash/load/service.hh"

namespace stramash
{

struct OpenLoopConfig
{
    ArrivalConfig arrival;
    KeyDistConfig keys;
    /** Requests to offer (accepted + shed). */
    std::size_t requests = 2000;
    /** Seed for the op-mix / ingress-choice stream (independent of
     *  the arrival and key streams). */
    std::uint64_t seed = 1;
};

/** What one open-loop run produced, in simulated cycles. */
struct OpenLoopReport
{
    std::uint64_t offered = 0;
    std::uint64_t accepted = 0;
    std::uint64_t shed = 0;
    std::uint64_t served = 0;
    std::uint64_t batches = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheStale = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t invalidationsSent = 0;
    std::uint64_t coherentInvalidations = 0;

    double meanLatency = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;

    /** Cycle the last served request completed at. */
    Cycles lastCompletion = 0;
    /** Cycle the last request arrived at. */
    Cycles lastArrival = 0;

    /** Fraction of offered requests refused by admission control. */
    double shedRate() const
    {
        return offered ? static_cast<double>(shed) / offered : 0.0;
    }

    /** Served requests per million cycles of run time. */
    double goodputPerMcycle() const
    {
        return lastCompletion
                   ? static_cast<double>(served) * 1e6 / lastCompletion
                   : 0.0;
    }
};

class OpenLoopEngine
{
  public:
    explicit OpenLoopEngine(OpenLoopConfig cfg);

    /**
     * Offer cfg.requests arrivals to @p fe on one global timeline,
     * then drain, then snapshot the front end's stats into a report.
     * Reuses of the same front end accumulate into its stats; use a
     * fresh System + front end per measured run.
     */
    OpenLoopReport run(KvFrontEnd &fe);

    const OpenLoopConfig &config() const { return cfg_; }

  private:
    OpenLoopConfig cfg_;
};

} // namespace stramash

#endif // STRAMASH_LOAD_ENGINE_HH

/**
 * @file
 * Deterministic open-loop arrival processes.
 *
 * Every workload the repro ran before this subsystem was closed-loop:
 * a client issues its next request only after the previous one
 * completes, so offered load can never exceed service capacity and
 * the system can never exhibit queueing collapse or tail-latency
 * amplification. An ArrivalProcess decouples request injection from
 * completion: it emits inter-arrival gaps in *simulated cycles* at a
 * configured mean rate, independent of how the servers are doing.
 *
 * Two processes cover the evaluation:
 *
 *  - Poisson: exponential inter-arrival gaps (memoryless, the
 *    classic open-loop reference).
 *  - OnOff: a two-state modulated Poisson process (bursty traces) —
 *    an "on" phase offers four times the configured rate, an "off"
 *    phase a quarter of it, with exponentially distributed phase
 *    lengths (mean 250 kcycles each), so the long-run rate is about
 *    2.1 times the configured one.
 *
 * Both draw from seeded PCG32 streams (common/rng.hh), so identical
 * seeds give bit-identical arrival timelines on every host.
 */

#ifndef STRAMASH_LOAD_ARRIVAL_HH
#define STRAMASH_LOAD_ARRIVAL_HH

#include "stramash/common/rng.hh"
#include "stramash/common/types.hh"

namespace stramash
{

struct ArrivalConfig
{
    enum class Kind
    {
        Poisson,
        OnOff,
    };

    Kind kind = Kind::Poisson;

    /** Mean arrival rate in requests per simulated megacycle (the
     *  base rate the OnOff phases multiply). */
    double ratePerMcycle = 100.0;

    /** Stream seed; identical seeds replay identical timelines. */
    std::uint64_t seed = 1;

    static ArrivalConfig poisson(double ratePerMcycle,
                                 std::uint64_t seed = 1);
    static ArrivalConfig onOff(double ratePerMcycle,
                               std::uint64_t seed = 1);
};

class ArrivalProcess
{
  public:
    explicit ArrivalProcess(ArrivalConfig cfg);

    /** Next inter-arrival gap in cycles (always >= 1). */
    Cycles next();

    const ArrivalConfig &config() const { return cfg_; }

    /** Arrivals generated so far. */
    std::uint64_t count() const { return count_; }

  private:
    ArrivalConfig cfg_;
    Rng rng_;
    std::uint64_t count_ = 0;

    /** OnOff modulation state. */
    bool onPhase_ = true;
    double phaseLeftCycles_ = 0.0;

    double expGap(double ratePerCycle);
};

} // namespace stramash

#endif // STRAMASH_LOAD_ARRIVAL_HH

#include "stramash/load/arrival.hh"

#include <cmath>

namespace stramash
{

namespace
{

/** OnOff: rate multiplier of an "on" phase. */
constexpr double kBurstMultiplier = 4.0;
/** OnOff: rate multiplier of an "off" phase. */
constexpr double kIdleMultiplier = 0.25;
/** OnOff: mean phase length in cycles (exponential). */
constexpr double kMeanPhaseCycles = 250000.0;

} // namespace

ArrivalConfig
ArrivalConfig::poisson(double ratePerMcycle, std::uint64_t seed)
{
    ArrivalConfig cfg;
    cfg.kind = Kind::Poisson;
    cfg.ratePerMcycle = ratePerMcycle;
    cfg.seed = seed;
    return cfg;
}

ArrivalConfig
ArrivalConfig::onOff(double ratePerMcycle, std::uint64_t seed)
{
    ArrivalConfig cfg;
    cfg.kind = Kind::OnOff;
    cfg.ratePerMcycle = ratePerMcycle;
    cfg.seed = seed;
    return cfg;
}

ArrivalProcess::ArrivalProcess(ArrivalConfig cfg)
    : cfg_(cfg), rng_(cfg.seed, 0xa221)
{
    panic_if(cfg_.ratePerMcycle <= 0.0,
             "arrival process needs a positive rate");
}

double
ArrivalProcess::expGap(double ratePerCycle)
{
    // Inverse-CDF exponential draw. uniform() < 1 by construction,
    // so the log argument stays positive.
    double u = rng_.uniform();
    return -std::log(1.0 - u) / ratePerCycle;
}

Cycles
ArrivalProcess::next()
{
    ++count_;
    double baseRate = cfg_.ratePerMcycle / 1e6;
    double gap;
    if (cfg_.kind == ArrivalConfig::Kind::Poisson) {
        gap = expGap(baseRate);
    } else {
        // Modulated Poisson: consume phase budget; a gap can span a
        // phase boundary, in which case the remainder is re-drawn at
        // the next phase's rate (memorylessness makes this exact).
        gap = 0.0;
        for (;;) {
            double rate =
                baseRate * (onPhase_ ? kBurstMultiplier : kIdleMultiplier);
            if (phaseLeftCycles_ <= 0.0)
                phaseLeftCycles_ = expGap(1.0 / kMeanPhaseCycles);
            double g = expGap(rate);
            if (g <= phaseLeftCycles_) {
                phaseLeftCycles_ -= g;
                gap += g;
                break;
            }
            gap += phaseLeftCycles_;
            phaseLeftCycles_ = 0.0;
            onPhase_ = !onPhase_;
        }
    }
    // Round up so time always advances (two requests never share a
    // cycle, keeping per-request completion ordering well defined).
    double rounded = std::ceil(gap);
    if (rounded < 1.0)
        rounded = 1.0;
    return static_cast<Cycles>(rounded);
}

} // namespace stramash

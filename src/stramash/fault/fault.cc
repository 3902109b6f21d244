#include "stramash/fault/fault.hh"

#include <algorithm>

namespace stramash
{

FaultPlan
FaultPlan::transientChaos(std::uint64_t seed, double rate,
                          std::uint64_t budget)
{
    FaultPlan p;
    p.seed = seed;
    p.msgDropRate = rate;
    p.msgDupRate = rate;
    p.msgCorruptRate = rate;
    p.msgDelayRate = rate;
    p.ipiDropRate = rate;
    p.memBlockDenyRate = rate;
    p.pageCorruptRate = rate;
    p.maxFaults = budget;
    return p;
}

FaultInjector::FaultInjector(const FaultPlan &plan)
    : plan_(plan),
      faults_("faults"),
      retries_("retries"),
      partition_("partition")
{
    panic_if(plan_.msgDropRate < 0 || plan_.msgDropRate > 1 ||
                 plan_.msgDupRate < 0 || plan_.msgDupRate > 1 ||
                 plan_.msgCorruptRate < 0 || plan_.msgCorruptRate > 1 ||
                 plan_.msgDelayRate < 0 || plan_.msgDelayRate > 1 ||
                 plan_.ipiDropRate < 0 || plan_.ipiDropRate > 1 ||
                 plan_.memBlockDenyRate < 0 ||
                 plan_.memBlockDenyRate > 1 ||
                 plan_.pageCorruptRate < 0 ||
                 plan_.pageCorruptRate > 1 || plan_.linkLossRate < 0 ||
                 plan_.linkLossRate > 1,
             "fault rates must be probabilities in [0, 1]");
    for (const ScheduledFault &f : plan_.schedule) {
        panic_if(f.kind == ScheduledFault::Kind::Link &&
                     (f.from == f.to || f.from == invalidNode ||
                      f.to == invalidNode),
                 "link schedule: a link joins two distinct nodes");
    }
    fired_.assign(plan_.schedule.size(), false);
    rngs_.reserve(siteCount);
    for (unsigned s = 0; s < siteCount; ++s)
        rngs_.emplace_back(plan_.seed, s);
}

bool
FaultInjector::fire(Site site, double rate, const char *name,
                    NodeId node, std::uint64_t arg0, std::uint64_t arg1)
{
    if (rate <= 0 || exhausted())
        return false;
    if (!rngs_[site].chance(rate))
        return false;
    ++injected_;
    faults_.counter("injected") += 1;
    faults_.counter(name) += 1;
    if (tracer_) {
        tracer_->instant(TraceCategory::Chaos, name, node, 0, arg0,
                         arg1);
    }
    return true;
}

bool
FaultInjector::shouldDropMessage(NodeId from, NodeId to)
{
    return fire(SiteMsgDrop, plan_.msgDropRate, "msg_drop", from, from,
                to);
}

bool
FaultInjector::shouldDuplicateMessage(NodeId from, NodeId to)
{
    return fire(SiteMsgDup, plan_.msgDupRate, "msg_dup", from, from,
                to);
}

bool
FaultInjector::shouldCorruptPayload(NodeId from, NodeId to,
                                    bool pagePayload)
{
    if (pagePayload) {
        double rate =
            std::max(plan_.msgCorruptRate, plan_.pageCorruptRate);
        return fire(SitePageCorrupt, rate, "page_corrupt", from, from,
                    to);
    }
    return fire(SiteMsgCorrupt, plan_.msgCorruptRate, "msg_corrupt",
                from, from, to);
}

Cycles
FaultInjector::messageDelayCycles(NodeId from, NodeId to)
{
    if (!fire(SiteMsgDelay, plan_.msgDelayRate, "msg_delay", from,
              from, to)) {
        return 0;
    }
    return FaultPlan::msgDelayCycles;
}

bool
FaultInjector::shouldDropIpi(NodeId from, NodeId to)
{
    return fire(SiteIpi, plan_.ipiDropRate, "ipi_drop", from, from,
                to);
}

bool
FaultInjector::shouldDenyMemBlock(NodeId donor)
{
    return fire(SiteMemBlock, plan_.memBlockDenyRate, "mem_block_deny",
                donor, donor, 0);
}

bool
FaultInjector::shouldDropOnLossyLink(NodeId from, NodeId to)
{
    // Not budget-exempt: a lossy link is a transient-style site, so a
    // bounded plan still converges once the budget is spent.
    return fire(SiteLinkLoss, plan_.linkLossRate, "link_loss", from,
                from, to);
}

const ScheduledFault *
FaultInjector::pollSchedule(NodeId nid,
                            const std::function<Cycles(NodeId)> &clock)
{
    if (!scheduleArmed())
        return nullptr;
    // Two passes keep a due crash ahead of every link transition.
    for (auto kind : {ScheduledFault::Kind::Crash,
                      ScheduledFault::Kind::Link}) {
        for (std::size_t i = 0; i < plan_.schedule.size(); ++i) {
            const ScheduledFault &f = plan_.schedule[i];
            if (fired_[i] || f.kind != kind)
                continue;
            bool crash = kind == ScheduledFault::Kind::Crash;
            if (crash && f.from != nid)
                continue;
            Cycles now = crash ? clock(nid)
                               : std::max(clock(f.from), clock(f.to));
            if (now < f.atCycle)
                continue;
            fired_[i] = true;
            ++scheduleFired_;
            ++injected_;
            faults_.counter("injected") += 1;
            if (!crash) {
                faults_.counter("link_event") += 1;
            } else {
                faults_.counter("crash.node_killed") += 1;
                if (tracer_) {
                    tracer_->instant(TraceCategory::Chaos,
                                     "crash.node_killed", nid, 0, nid,
                                     now);
                }
            }
            return &f;
        }
    }
    return nullptr;
}

void
FaultInjector::corrupt(std::vector<std::uint8_t> &payload,
                       std::uint64_t &arg0)
{
    Rng &rng = rngs_[SiteCorruptBytes];
    if (payload.empty()) {
        arg0 ^= std::uint64_t{1} << rng.below(64);
        return;
    }
    std::size_t at = static_cast<std::size_t>(
        rng.below64(payload.size()));
    // Flipping a whole byte guarantees the stored value changes.
    payload[at] ^= 0xff;
}

} // namespace stramash

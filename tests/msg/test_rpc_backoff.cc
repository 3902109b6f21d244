/**
 * @file
 * The tryRpc retry loop's cycle accounting, pinned exactly: every
 * failed attempt charges the response timeout, every retry is
 * preceded by the policy's exponential backoff (doubling from the
 * base to the cap), and stale or duplicate replies are discarded
 * rather than matched to a later RPC.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "stramash/msg/transport.hh"

using namespace stramash;

namespace
{

/** Two nodes, a fault plan, and an echo server on node 1. */
struct Rig
{
    explicit Rig(const FaultPlan &plan)
    {
        MachineConfig mc = MachineConfig::paperPair(MemoryModel::Shared);
        mc.faultPlan = plan;
        machine = std::make_unique<Machine>(mc);
        layer = std::make_unique<TcpMessageLayer>(*machine);
        layer->registerHandler(1, [this](const Message &m) {
            if (m.type != MsgType::PageRequest)
                return;
            ++requestsServed;
            Message resp;
            resp.type = MsgType::PageResponse;
            resp.from = 1;
            resp.to = m.from;
            resp.arg0 = m.arg0;
            layer->send(resp);
        });
        layer->registerHandler(0, [](const Message &) {});
    }

    Message
    request(std::uint64_t tag) const
    {
        Message req;
        req.type = MsgType::PageRequest;
        req.from = 0;
        req.to = 1;
        req.arg0 = tag;
        return req;
    }

    FaultInjector &injector() { return *machine->faultInjector(); }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<MessageLayer> layer;
    unsigned requestsServed = 0;
};

} // namespace

TEST(RpcBackoff, BackoffScheduleDoublesFromBaseToCap)
{
    Cycles expect = RpcPolicy::backoffBaseCycles;
    for (unsigned a = 1; a < RpcPolicy::maxAttempts; ++a) {
        EXPECT_EQ(RpcPolicy::backoffForAttempt(a), expect)
            << "attempt " << a;
        expect = std::min(expect * 2, RpcPolicy::backoffCapCycles);
    }
    EXPECT_EQ(RpcPolicy::backoffForAttempt(RpcPolicy::maxAttempts),
              RpcPolicy::backoffCapCycles);
}

TEST(RpcBackoff, AllAttemptsDroppedChargeIsExactPerPolicy)
{
    // Unbounded drop plan: every transmission dies, so tryRpc walks
    // the whole retry ladder and gives up. The requester's clock
    // must advance by *exactly* one response timeout per attempt plus
    // the exponential backoff before each retry — nothing else.
    FaultPlan plan;
    plan.msgDropRate = 1.0;
    Rig rig(plan);

    Cycles before = rig.machine->node(0).cycles();
    auto resp = rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
    Cycles spent = rig.machine->node(0).cycles() - before;

    EXPECT_FALSE(resp.has_value());
    Cycles expect =
        RpcPolicy::maxAttempts * RpcPolicy::responseTimeoutCycles;
    for (unsigned a = 1; a < RpcPolicy::maxAttempts; ++a)
        expect += RpcPolicy::backoffForAttempt(a);
    EXPECT_EQ(spent, expect);
    EXPECT_EQ(rig.injector().retries().value("timeouts"),
              RpcPolicy::maxAttempts);
    EXPECT_EQ(rig.injector().retries().value("attempts"),
              RpcPolicy::maxAttempts - 1u);
    EXPECT_EQ(rig.injector().retries().value("gave_up"), 1u);
    EXPECT_EQ(rig.requestsServed, 0u);
}

TEST(RpcBackoff, PartialDropChargesOnlyTheFailedAttempts)
{
    // Three drops, then the wire heals: the failed prefix is charged
    // in full (three timeouts, backoffs 1-3) and the fourth attempt
    // succeeds.
    FaultPlan plan;
    plan.msgDropRate = 1.0;
    plan.maxFaults = 3;
    Rig rig(plan);

    Cycles before = rig.machine->node(0).cycles();
    auto resp = rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
    Cycles spent = rig.machine->node(0).cycles() - before;

    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->arg0, 7u);
    EXPECT_EQ(rig.requestsServed, 1u);
    Cycles failedCharge = 3 * RpcPolicy::responseTimeoutCycles +
                          RpcPolicy::backoffForAttempt(1) +
                          RpcPolicy::backoffForAttempt(2) +
                          RpcPolicy::backoffForAttempt(3);
    EXPECT_GE(spent, failedCharge); // plus the live attempt's wire work
    EXPECT_EQ(rig.injector().retries().value("timeouts"), 3u);
    EXPECT_EQ(rig.injector().retries().value("attempts"), 3u);
}

TEST(RpcBackoff, DuplicateReplyIsDiscardedNotMatchedToALaterRpc)
{
    // Duplicate both wire legs of the first RPC: the server sees the
    // request twice (seq-dropped once, served once) and the requester
    // sees the reply twice (the extra copy is discarded). A second,
    // unrelated RPC must then get its own fresh answer — never the
    // stale duplicate.
    FaultPlan plan;
    plan.msgDupRate = 1.0;
    plan.maxFaults = 2;
    Rig rig(plan);

    auto first = rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->arg0, 7u);
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_EQ(rig.layer->stats().value("dup_dropped"), 2u);

    auto second = rig.layer->tryRpc(rig.request(9), MsgType::PageResponse);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->arg0, 9u);
    EXPECT_EQ(rig.requestsServed, 2u);
}

TEST(RpcBackoff, ReplayedReplyCompletesOnlyItsOwnRpc)
{
    // Deliver the request, drop the reply: the retried request hits
    // the server's reply cache (the handler must not run again) and
    // the replay completes the RPC. A follow-up RPC is unaffected.
    FaultPlan plan;
    plan.msgDropRate = 0.5;
    plan.maxFaults = 1;
    std::uint64_t seed = 0;
    for (std::uint64_t s = 1; s < 1000; ++s) {
        FaultPlan probePlan = plan;
        probePlan.seed = s;
        FaultInjector probe(probePlan);
        if (!probe.shouldDropMessage(0, 1) &&
            probe.shouldDropMessage(1, 0)) {
            seed = s;
            break;
        }
    }
    ASSERT_NE(seed, 0u) << "no suitable seed below 1000";
    plan.seed = seed;
    Rig rig(plan);

    auto first = rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->arg0, 7u);
    EXPECT_EQ(rig.requestsServed, 1u); // replayed, not re-served
    EXPECT_GE(rig.injector().retries().value("replayed_responses"),
              1u);

    auto second = rig.layer->tryRpc(rig.request(9), MsgType::PageResponse);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->arg0, 9u);
    EXPECT_EQ(rig.requestsServed, 2u);
}

TEST(RpcBackoff, SustainedLinkDelayExhaustsTheBudgetAtExactCharge)
{
    // A Delayed link parks every request past the response timeout
    // (linkDelayCycles > responseTimeoutCycles by construction), so
    // tryRpc walks the full retry ladder exactly as if the wire were
    // dead — the same deterministic charge as the all-dropped case —
    // while the transport holds the messages instead of losing them.
    FaultPlan plan;
    Rig rig(plan);
    ASSERT_GT(FaultPlan::linkDelayCycles,
              RpcPolicy::responseTimeoutCycles);

    rig.machine->setLinkState(0, 1, LinkState::Delayed);

    Cycles before = rig.machine->node(0).cycles();
    auto resp = rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
    Cycles spent = rig.machine->node(0).cycles() - before;

    EXPECT_FALSE(resp.has_value());
    Cycles expect =
        RpcPolicy::maxAttempts * RpcPolicy::responseTimeoutCycles;
    for (unsigned a = 1; a < RpcPolicy::maxAttempts; ++a)
        expect += RpcPolicy::backoffForAttempt(a);
    EXPECT_EQ(spent, expect);
    EXPECT_EQ(rig.injector().retries().value("timeouts"),
              RpcPolicy::maxAttempts);
    EXPECT_EQ(rig.injector().retries().value("attempts"),
              RpcPolicy::maxAttempts - 1u);
    EXPECT_EQ(rig.injector().retries().value("gave_up"), 1u);
    EXPECT_EQ(rig.injector().partition().value("msgs_parked"),
              RpcPolicy::maxAttempts);
    EXPECT_EQ(rig.requestsServed, 0u);

    // Once the receiver's clock crosses the release point, the parked
    // retries arrive in order: the first is served, the rest hit the
    // reply cache — the RPC already gave up, so the stale answers go
    // nowhere.
    rig.machine->stall(1, FaultPlan::linkDelayCycles +
                              RpcPolicy::responseTimeoutCycles);
    rig.layer->dispatchPending(1);
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_EQ(rig.injector().retries().value("replayed_responses"),
              RpcPolicy::maxAttempts - 1u);
}

TEST(RpcBackoff, SustainedDelayChargeIsIdenticalAcrossRuns)
{
    // The delay path must replay bit-identically: two fresh rigs walk
    // the same ladder to the same clocks and counters.
    auto once = []() {
        FaultPlan plan;
        Rig rig(plan);
        rig.machine->setLinkState(0, 1, LinkState::Delayed);
        Cycles before = rig.machine->node(0).cycles();
        auto resp =
            rig.layer->tryRpc(rig.request(7), MsgType::PageResponse);
        EXPECT_FALSE(resp.has_value());
        return std::vector<std::uint64_t>{
            rig.machine->node(0).cycles() - before,
            rig.injector().retries().value("timeouts"),
            rig.injector().retries().value("attempts"),
            rig.injector().retries().value("gave_up"),
            rig.injector().partition().value("msgs_parked"),
        };
    };
    EXPECT_EQ(once(), once());
}

#include <gtest/gtest.h>

#include <memory>

#include "stramash/core/app.hh"
#include "stramash/msg/transport.hh"

using namespace stramash;

namespace
{

/**
 * A two-node machine with a fault plan attached, a message layer on
 * top, and a counting request server on node 1: PageRequest is
 * answered with a recognisable PageResponse payload.
 */
struct Rig
{
    explicit Rig(const FaultPlan &plan, bool shm = false)
    {
        MachineConfig mc = MachineConfig::paperPair(MemoryModel::Shared);
        mc.faultPlan = plan;
        machine = std::make_unique<Machine>(mc);
        if (shm) {
            layer = std::make_unique<ShmMessageLayer>(
                *machine, ShmMessageLayer::areaBaseFor(machine->physMap()),
                true);
        } else {
            layer = std::make_unique<TcpMessageLayer>(*machine);
        }
        layer->registerHandler(1, [this](const Message &m) {
            if (m.type != MsgType::PageRequest) {
                ++notesServed;
                return;
            }
            ++requestsServed;
            Message resp;
            resp.type = MsgType::PageResponse;
            resp.from = 1;
            resp.to = m.from;
            resp.arg0 = m.arg0;
            resp.payload.assign(64, 0x5a);
            layer->send(resp);
        });
        layer->registerHandler(0, [](const Message &) {});
    }

    Message
    request() const
    {
        Message req;
        req.type = MsgType::PageRequest;
        req.from = 0;
        req.to = 1;
        req.arg0 = 7;
        return req;
    }

    FaultInjector &injector() { return *machine->faultInjector(); }

    std::unique_ptr<Machine> machine;
    std::unique_ptr<MessageLayer> layer;
    unsigned requestsServed = 0;
    unsigned notesServed = 0;
};

} // namespace

TEST(ResilientMsg, DroppedRequestIsRetriedAndAnswered)
{
    FaultPlan plan;
    plan.msgDropRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    auto resp = rig.layer->tryRpc(rig.request(), MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->payload, std::vector<std::uint8_t>(64, 0x5a));
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_EQ(rig.injector().faults().value("msg_drop"), 1u);
    EXPECT_EQ(rig.injector().retries().value("attempts"), 1u);
    EXPECT_EQ(rig.injector().retries().value("timeouts"), 1u);
}

TEST(ResilientMsg, TimeoutAndBackoffAreChargedInSimulatedCycles)
{
    FaultPlan plan;
    plan.msgDropRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    Cycles before = rig.machine->node(0).cycles();
    ASSERT_TRUE(rig.layer->tryRpc(rig.request(), MsgType::PageResponse));
    Cycles spent = rig.machine->node(0).cycles() - before;
    // One timeout plus one backoff, at minimum, on the requester.
    EXPECT_GE(spent,
              RpcPolicy::responseTimeoutCycles +
                  RpcPolicy::backoffForAttempt(1));
}

TEST(ResilientMsg, DuplicatedDeliveryIsSuppressedBySeq)
{
    FaultPlan plan;
    plan.msgDupRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    auto resp = rig.layer->tryRpc(rig.request(), MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    // The wire carried the request twice; the handler ran once.
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_EQ(rig.layer->stats().value("dup_dropped"), 1u);
}

TEST(ResilientMsg, CorruptedRequestIsDroppedByCrcAndRetried)
{
    FaultPlan plan;
    plan.msgCorruptRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    auto resp = rig.layer->tryRpc(rig.request(), MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->payload, std::vector<std::uint8_t>(64, 0x5a));
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_EQ(rig.layer->stats().value("crc_dropped"), 1u);
    EXPECT_EQ(rig.injector().retries().value("attempts"), 1u);
}

TEST(ResilientMsg, LostResponseIsReplayedFromReplyCacheNotReServed)
{
    // Pick a seed whose drop stream spares the request (draw 1) and
    // kills the response (draw 2), so the retried request reaches a
    // server that has already executed the handler.
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

    auto resp = rig.layer->tryRpc(rig.request(), MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->payload, std::vector<std::uint8_t>(64, 0x5a));
    // At-most-once: the handler must not have run twice even though
    // the request was transmitted twice.
    EXPECT_EQ(rig.requestsServed, 1u);
    EXPECT_GE(rig.injector().retries().value("replayed_responses"), 1u);
}

TEST(ResilientMsg, SendReliableAcksOneWayMessages)
{
    FaultPlan plan;
    plan.msgDropRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    Message note;
    note.type = MsgType::FutexWake;
    note.from = 0;
    note.to = 1;
    note.arg2 = 1;
    // First transmission dropped; the Ack-based retry recovers it.
    EXPECT_EQ(rig.layer->sendReliable(note), Errc::Ok);
    EXPECT_EQ(rig.notesServed, 1u);
    EXPECT_EQ(rig.injector().retries().value("attempts"), 1u);
}

TEST(ResilientMsg, GiveUpAfterMaxAttemptsReturnsNullopt)
{
    FaultPlan plan;
    plan.msgDropRate = 1.0; // unbounded: every attempt dies
    Rig rig(plan);

    auto resp = rig.layer->tryRpc(rig.request(), MsgType::PageResponse);
    EXPECT_FALSE(resp.has_value());
    EXPECT_EQ(rig.requestsServed, 0u);
    EXPECT_EQ(rig.injector().retries().value("timeouts"),
              RpcPolicy::maxAttempts);
    EXPECT_EQ(rig.injector().retries().value("gave_up"), 1u);
    // Errc streams symbolically ("unreachable", not a raw integer).
    Errc e = rig.layer->sendReliable(rig.request());
    EXPECT_EQ(e, Errc::Unreachable) << "sendReliable returned " << e;
}

TEST(ResilientMsg, DelayedDeliveryChargesTheReceiverClock)
{
    FaultPlan plan;
    plan.msgDelayRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    Cycles before = rig.machine->node(1).cycles();
    ASSERT_TRUE(rig.layer->tryRpc(rig.request(), MsgType::PageResponse));
    EXPECT_GE(rig.machine->node(1).cycles() - before,
              FaultPlan::msgDelayCycles);
    EXPECT_EQ(rig.injector().faults().value("msg_delay"), 1u);
}

TEST(ResilientMsg, IpiLossSiteSwallowsTheInterrupt)
{
    FaultPlan plan;
    plan.ipiDropRate = 1.0;
    plan.maxFaults = 1;
    Rig rig(plan);

    EXPECT_EQ(rig.machine->sendIpi(0, 1), 0u);
    EXPECT_GT(rig.machine->sendIpi(0, 1), 0u); // budget spent
    EXPECT_EQ(rig.injector().faults().value("ipi_drop"), 1u);
}

TEST(ResilientMsg, ShmRingOverflowReturnsRingFull)
{
    // Satellite: a full ring is an error code and a stat, not a
    // panic. No fault plan needed — this is plain backpressure.
    MachineConfig mc = MachineConfig::paperPair(MemoryModel::Shared);
    Machine machine(mc);
    // The 128 MiB area across two directed rings gives each ring
    // 64 MiB of 4 KiB + header slots; nobody drains them.
    ShmMessageLayer layer(
        machine, ShmMessageLayer::areaBaseFor(machine.physMap()), false);

    Message m;
    m.type = MsgType::PageRequest;
    m.from = 0;
    m.to = 1;
    Errc last = Errc::Ok;
    unsigned sent = 0;
    for (; sent < 32768; ++sent) {
        last = layer.send(m);
        if (last != Errc::Ok)
            break;
    }
    EXPECT_EQ(last, Errc::RingFull);
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(layer.stats().value("ring_full"), 1u);
}

TEST(ResilientMsg, FaultFreeWireTrafficIsUnchanged)
{
    // With no plan attached, the resilient layer must not add
    // messages, ids or checksums — Table 3 message counts depend on
    // it.
    MachineConfig mc = MachineConfig::paperPair(MemoryModel::Shared);
    Machine machine(mc);
    TcpMessageLayer layer(machine);
    Message m;
    m.type = MsgType::FutexWait;
    m.from = 0;
    m.to = 1;
    EXPECT_EQ(layer.send(m), Errc::Ok);
    auto out = layer.receive(1);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->crc, 0u);
    EXPECT_EQ(out->rpcId, 0u);
    EXPECT_EQ(out->respondsTo, 0u);
    EXPECT_EQ(layer.messagesSent(), 1u);
}

TEST(DsmPageIntegrity, CorruptedPageResponseIsNeverInstalled)
{
    // Acceptance criterion: corruption injected into a PageResponse
    // payload must be caught by the CRC, retried, and never land in
    // guest memory.
    SystemConfig cfg;
    cfg.osDesign = OsDesign::MultipleKernel;
    FaultPlan plan;
    plan.seed = 5;
    plan.pageCorruptRate = 1.0;
    plan.maxFaults = 1;
    cfg.faultPlan = plan;
    System sys(cfg);
    App app(sys, 0);

    constexpr unsigned pages = 4;
    Addr buf = app.mmap(pages * pageSize);
    for (unsigned i = 0; i < pages; ++i)
        app.write<std::uint64_t>(buf + i * pageSize,
                                 0xfeed0000ull + i);

    app.migrateToNext();
    for (unsigned i = 0; i < pages; ++i) {
        EXPECT_EQ(app.read<std::uint64_t>(buf + i * pageSize),
                  0xfeed0000ull + i)
            << "page " << i << " content corrupted";
    }

    FaultInjector *fi = sys.machine().faultInjector();
    ASSERT_NE(fi, nullptr);
    EXPECT_EQ(fi->faults().value("page_corrupt"), 1u);
    EXPECT_EQ(sys.msg().stats().value("crc_dropped"), 1u);
    EXPECT_GE(fi->retries().value("attempts"), 1u);
}

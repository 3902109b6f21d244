#include <gtest/gtest.h>

#include "stramash/common/units.hh"
#include "stramash/mem/topology.hh"
#include "stramash/msg/transport.hh"

using namespace stramash;

namespace
{

Message
mkMsg(MsgType t, NodeId from, NodeId to)
{
    Message m;
    m.type = t;
    m.from = from;
    m.to = to;
    return m;
}

} // namespace

class TransportBoth : public testing::TestWithParam<Transport>
{
  protected:
    TransportBoth()
        : machine_(MachineConfig::paperPair(MemoryModel::Shared))
    {
        if (GetParam() == Transport::SharedMemory) {
            layer_ = std::make_unique<ShmMessageLayer>(
                machine_, ShmMessageLayer::areaBaseFor(machine_.physMap()),
                true);
        } else {
            layer_ = std::make_unique<TcpMessageLayer>(machine_);
        }
    }

    Machine machine_;
    std::unique_ptr<MessageLayer> layer_;
};

TEST_P(TransportBoth, SendReceiveRoundTrip)
{
    Message m = mkMsg(MsgType::PageRequest, 0, 1);
    m.arg0 = 42;
    m.payload = {1, 2, 3, 4};
    layer_->send(m);
    auto out = layer_->receive(1);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->arg0, 42u);
    EXPECT_EQ(out->payload, (std::vector<std::uint8_t>{1, 2, 3, 4}));
    EXPECT_GT(out->seq, 0u);
    EXPECT_FALSE(layer_->receive(1).has_value());
}

TEST_P(TransportBoth, CountersTrackTraffic)
{
    layer_->send(mkMsg(MsgType::FutexWait, 0, 1));
    layer_->send(mkMsg(MsgType::FutexWake, 1, 0));
    EXPECT_EQ(layer_->messagesSent(), 2u);
    EXPECT_GT(layer_->bytesSent(), 0u);
    EXPECT_EQ(layer_->stats().value("sent.futex_wait"), 1u);
    EXPECT_EQ(layer_->stats().value("sent.futex_wake"), 1u);
    layer_->resetCounters();
    EXPECT_EQ(layer_->messagesSent(), 0u);
}

TEST_P(TransportBoth, DispatchPendingDrivesHandler)
{
    int delivered = 0;
    layer_->registerHandler(1, [&](const Message &m) {
        ++delivered;
        EXPECT_EQ(m.type, MsgType::VmaRequest);
    });
    layer_->send(mkMsg(MsgType::VmaRequest, 0, 1));
    layer_->send(mkMsg(MsgType::VmaRequest, 0, 1));
    layer_->dispatchPending(1);
    EXPECT_EQ(delivered, 2);
}

TEST_P(TransportBoth, RpcRequestResponse)
{
    layer_->registerHandler(1, [&](const Message &m) {
        Message resp = mkMsg(MsgType::PageResponse, 1, 0);
        resp.arg0 = m.arg0 * 2;
        layer_->send(resp);
    });
    layer_->registerHandler(0, [&](const Message &) {});
    Message req = mkMsg(MsgType::PageRequest, 0, 1);
    req.arg0 = 21;
    auto resp = layer_->tryRpc(req, MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->type, MsgType::PageResponse);
    EXPECT_EQ(resp->arg0, 42u);
}

TEST_P(TransportBoth, NestedRpcWorks)
{
    // Node 1's handler performs its own RPC back to node 0 before
    // answering (e.g. a fault handler needing more information).
    layer_->registerHandler(0, [&](const Message &m) {
        if (m.type == MsgType::VmaRequest) {
            Message r = mkMsg(MsgType::VmaResponse, 0, 1);
            r.arg0 = 7;
            layer_->send(r);
        }
    });
    layer_->registerHandler(1, [&](const Message &m) {
        if (m.type == MsgType::PageRequest) {
            Message inner = mkMsg(MsgType::VmaRequest, 1, 0);
            auto vma = layer_->tryRpc(inner, MsgType::VmaResponse);
            ASSERT_TRUE(vma.has_value());
            Message resp = mkMsg(MsgType::PageResponse, 1, 0);
            resp.arg0 = vma->arg0 + 1;
            layer_->send(resp);
        }
    });
    auto resp = layer_->tryRpc(mkMsg(MsgType::PageRequest, 0, 1),
                               MsgType::PageResponse);
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(resp->arg0, 8u);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportBoth,
                         testing::Values(Transport::SharedMemory,
                                         Transport::Network),
                         [](const auto &info) {
                             return std::string(
                                 transportName(info.param));
                         });

TEST(TcpTransport, ChargesPropagationToReceiver)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    TcpMessageLayer layer(m);
    layer.send(mkMsg(MsgType::TaskMigrate, 0, 1));
    Cycles before = m.node(1).cycles();
    layer.receive(1);
    Cycles cost = m.node(1).cycles() - before;
    // 37.5 us at 2.0 GHz = 75000 cycles, plus handler and stack.
    EXPECT_GT(cost, 75000u);
    EXPECT_LT(cost, 75000u + 16000u);
}

TEST(ShmTransport, IpiNotificationChargesReceiver)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    ShmMessageLayer layer(m, 4_GiB, true);
    Cycles before = m.node(1).cycles();
    layer.send(mkMsg(MsgType::TaskMigrate, 0, 1));
    // The receiver got the 2 us IPI cost already.
    EXPECT_GE(m.node(1).cycles() - before, 4000u);
    EXPECT_EQ(m.ipisReceived(1), 1u);
}

TEST(ShmTransport, PollingModeSkipsIpi)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    ShmMessageLayer layer(m, 4_GiB, false);
    layer.send(mkMsg(MsgType::TaskMigrate, 0, 1));
    EXPECT_EQ(m.ipisReceived(1), 0u);
    EXPECT_TRUE(layer.receive(1).has_value());
}

TEST(ShmTransport, PaperPlacementRules)
{
    // Separated: x86-local, so Arm pays remote. Shared: the CXL pool,
    // remote for both. FullyShared: local to both.
    auto base = [](MemoryModel m) {
        return ShmMessageLayer::areaBaseFor(PhysMap::paperDefault(m));
    };
    EXPECT_EQ(base(MemoryModel::Separated), 1_GiB);
    EXPECT_EQ(base(MemoryModel::Shared), 4_GiB);
    EXPECT_EQ(base(MemoryModel::FullyShared), 1_GiB);
    EXPECT_EQ(ShmMessageLayer::paperAreaBytes, 128_MiB);
}

TEST(ShmTransport, TcpSlowerThanShmForSameTraffic)
{
    Machine m1(MachineConfig::paperPair(MemoryModel::Shared));
    Machine m2(MachineConfig::paperPair(MemoryModel::Shared));
    ShmMessageLayer shm(m1, 4_GiB, true);
    TcpMessageLayer tcp(m2);
    for (int i = 0; i < 10; ++i) {
        Message msg = mkMsg(MsgType::PageResponse, 0, 1);
        msg.payload.resize(pageSize);
        shm.send(msg);
        shm.receive(1);
        tcp.send(msg);
        tcp.receive(1);
    }
    EXPECT_LT(m1.totalRuntime(), m2.totalRuntime());
}

TEST(ShmTransport, ReceivePollsSendersInAscendingOrder)
{
    // One ring per ordered pair; a receive polls the rings into the
    // node by ascending sender, so node 0 hears node 1 before node 3
    // whatever order they sent in. The charged cycles pin the exact
    // sequence of ring loads and stores that receive walk performs.
    Machine m(MachineConfig::fromTopology(
        TopologySpec::alternating(4, MemoryModel::Shared)));
    ShmMessageLayer layer(m, ShmMessageLayer::areaBaseFor(m.physMap()),
                          true);
    Message late = mkMsg(MsgType::FutexWait, 3, 0);
    late.arg0 = 3;
    Message early = mkMsg(MsgType::FutexWake, 1, 0);
    early.arg0 = 1;
    early.payload.resize(256, 0x5a);
    layer.send(late);
    layer.send(early);

    Cycles before = m.node(0).cycles();
    auto first = layer.receive(0);
    auto second = layer.receive(0);
    EXPECT_FALSE(layer.receive(0).has_value());
    Cycles cost = m.node(0).cycles() - before;

    ASSERT_TRUE(first.has_value());
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(first->from, 1u);
    EXPECT_EQ(first->arg0, 1u);
    EXPECT_EQ(first->payload.size(), 256u);
    EXPECT_EQ(second->from, 3u);
    EXPECT_EQ(second->arg0, 3u);
    EXPECT_EQ(cost, 36660u);
}

TEST(TransportDeath, MessageToSelfPanics)
{
    Machine m(MachineConfig::paperPair(MemoryModel::Shared));
    TcpMessageLayer layer(m);
    EXPECT_DEATH(layer.send(mkMsg(MsgType::TaskMigrate, 0, 0)),
                 "message to self");
}

/** @file Unit tests for the bandwidth-limited link. */

#include <gtest/gtest.h>

#include "src/noc/link.hh"
#include "src/sim/engine.hh"

namespace netcrafter::noc {
namespace {

FlitPtr
mkFlit(PacketType type = PacketType::ReadReq)
{
    static std::uint64_t addr = 0;
    auto pkt = makePacket(type, 0, 1, addr += 64);
    return segmentPacket(pkt, 16).front();
}

struct LinkFixture : ::testing::Test
{
    sim::Engine engine;
    FlitBuffer src{64};
    FlitBuffer dst{64};
};

TEST_F(LinkFixture, MovesFlitsAtOnePerCycle)
{
    Link link(engine, "l", src, dst, 1);
    for (int i = 0; i < 8; ++i)
        src.tryPush(mkFlit());
    engine.run();
    EXPECT_EQ(dst.size(), 8u);
    EXPECT_EQ(link.flitsTransferred(), 8u);
    // 1 flit/cycle: the last transfer happens at cycle ~8.
    EXPECT_GE(engine.now(), 8u);
    EXPECT_LE(engine.now(), 10u);
}

TEST_F(LinkFixture, HigherBandwidthMovesFaster)
{
    Link link(engine, "l", src, dst, 8);
    for (int i = 0; i < 16; ++i)
        src.tryPush(mkFlit());
    engine.run();
    EXPECT_EQ(dst.size(), 16u);
    EXPECT_LE(engine.now(), 4u); // 16 flits at 8/cycle = 2 cycles
}

TEST_F(LinkFixture, BackpressureWhenSinkFull)
{
    FlitBuffer tiny(2);
    Link link(engine, "l", src, tiny, 4);
    for (int i = 0; i < 6; ++i)
        src.tryPush(mkFlit());
    engine.run();
    // Only two made it; the rest wait at the source.
    EXPECT_EQ(tiny.size(), 2u);
    EXPECT_EQ(src.size(), 4u);

    // Draining the sink resumes the link.
    tiny.pop();
    tiny.pop();
    engine.run();
    EXPECT_EQ(tiny.size(), 2u);
    EXPECT_EQ(src.size(), 2u);
}

TEST_F(LinkFixture, CountsWireAndUsefulBytes)
{
    Link link(engine, "l", src, dst, 1);
    src.tryPush(mkFlit(PacketType::ReadReq));  // 12 useful of 16
    src.tryPush(mkFlit(PacketType::WriteRsp)); // 4 useful of 16
    engine.run();
    EXPECT_EQ(link.bytesTransferred(), 32u);
    EXPECT_EQ(link.usefulBytesTransferred(), 16u);
}

TEST_F(LinkFixture, UtilizationReflectsActivity)
{
    Link link(engine, "l", src, dst, 1);
    for (int i = 0; i < 10; ++i)
        src.tryPush(mkFlit());
    engine.run();
    // 10 flits over ~11 cycles at 1 flit/cycle.
    EXPECT_GT(link.utilization(), 0.8);
    EXPECT_LE(link.utilization(), 1.0);
    EXPECT_EQ(link.busyCycles(), 10u);
}

TEST_F(LinkFixture, IdleLinkCostsNothing)
{
    Link link(engine, "l", src, dst, 1);
    engine.run();
    EXPECT_EQ(engine.eventsExecuted(), 0u);
    EXPECT_EQ(link.flitsTransferred(), 0u);
}

} // namespace
} // namespace netcrafter::noc

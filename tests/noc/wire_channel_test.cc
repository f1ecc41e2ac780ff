/**
 * @file
 * WireChannel tests, including the cross-shard ingress-queue ordering
 * property: randomized traffic pushed through a channel spanning two
 * shards must arrive in exactly the order and at exactly the ticks the
 * serial (same-engine) channel produces.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "src/noc/flit.hh"
#include "src/noc/flit_buffer.hh"
#include "src/noc/packet.hh"
#include "src/noc/wire_channel.hh"
#include "src/sim/random.hh"
#include "src/sim/sharded_engine.hh"

namespace netcrafter::noc {
namespace {

/** One observed arrival at the sink: (tick, packet id, flit seq). */
using Arrival = std::tuple<Tick, std::uint64_t, std::uint32_t>;

/** Flight latency of the channel runTraffic() builds. */
constexpr Tick kWireLatency = 6;

/** Randomized injection schedule shared by the serial and sharded runs. */
struct Injection
{
    Tick when;
    std::uint32_t bytes;
    std::uint32_t seq;
    std::uint32_t numFlits;
};

std::vector<Injection>
randomSchedule(std::uint64_t seed, std::size_t count)
{
    Pcg32 rng(seed);
    std::vector<Injection> plan;
    Tick when = 1;
    for (std::size_t i = 0; i < count; ++i) {
        when += rng.below(7); // bursts: several flits at one tick
        Injection inj;
        inj.when = when;
        inj.bytes = 1 + rng.below(16);
        inj.numFlits = 1 + rng.below(3);
        inj.seq = rng.below(inj.numFlits);
        plan.push_back(inj);
    }
    return plan;
}

/**
 * Drive @p plan through a channel between @p src_eng and @p dst_eng
 * (distinct when sharded) and record every sink arrival. The sink is
 * deliberately small so credit backpressure kicks in, and the consumer
 * drains one flit per cycle so credits trickle back.
 */
std::vector<Arrival>
runTraffic(sim::ShardedEngine &eng, unsigned dst_shard,
           const std::vector<Injection> &plan)
{
    sim::Engine &src_eng = eng.shard(0);
    sim::Engine &dst_eng = eng.shard(dst_shard);

    FlitBuffer source(1024);
    FlitBuffer sink(4); // small: forces the credit path to matter
    WireChannel channel(src_eng, dst_eng, "test.wire", source, sink,
                        /*flits_per_cycle=*/2, kWireLatency,
                        /*src_shard=*/0, dst_shard);
    if (channel.crossShard())
        eng.registerPort(channel);

    resetPacketIds();
    std::vector<Arrival> arrivals;

    // Consumer: pop one flit per cycle while any are waiting.
    bool drain_scheduled = false;
    std::function<void()> drain = [&] {
        drain_scheduled = false;
        if (sink.empty())
            return;
        FlitPtr flit = sink.pop();
        arrivals.emplace_back(dst_eng.now(), flit->pkt->id, flit->seq);
        if (!sink.empty()) {
            drain_scheduled = true;
            dst_eng.schedule(1, [&] { drain(); });
        }
    };
    sink.setOnPush([&] {
        if (!drain_scheduled) {
            drain_scheduled = true;
            dst_eng.schedule(1, [&] { drain(); });
        }
    });

    for (const Injection &inj : plan) {
        src_eng.schedule(inj.when, [&source, inj] {
            auto pkt = makePacket(PacketType::ReadReq, 0, 1,
                                  0x1000 + inj.bytes);
            FlitPtr flit = makeFlit();
            flit->pkt = std::move(pkt);
            flit->seq = inj.seq;
            flit->numFlits = inj.numFlits;
            flit->occupiedBytes = static_cast<std::uint16_t>(inj.bytes);
            ASSERT_TRUE(source.tryPush(std::move(flit)));
        });
    }

    EXPECT_EQ(eng.run(), sim::RunStatus::Drained);
    eng.alignClocks();
    return arrivals;
}

TEST(WireChannelOrderingPropertyTest, CrossShardMatchesSerialOrder)
{
    // The sharded channel must reproduce the serial arrival stream
    // exactly.
    for (std::uint64_t seed : {1ull, 7ull, 1234ull, 99991ull}) {
        const std::vector<Injection> plan = randomSchedule(seed, 200);

        sim::ShardedEngine serial(1);
        const std::vector<Arrival> ref = runTraffic(serial, 0, plan);

        sim::ShardedEngine sharded(2);
        const std::vector<Arrival> got = runTraffic(sharded, 1, plan);

        ASSERT_EQ(ref.size(), plan.size()) << "seed " << seed;
        EXPECT_EQ(ref, got) << "seed " << seed;
    }
}

TEST(WireChannelOrderingPropertyTest, AdaptiveWindowRespectsWireBound)
{
    // Safe-window property over real randomized traffic: every bounded
    // window must span at least the channel latency, the conservative
    // lookahead no cross-shard delivery can beat. Arrival equality with
    // serial is asserted by CrossShardMatchesSerialOrder; this checks
    // the window geometry that equality rests on.
    for (std::uint64_t seed : {3ull, 77ull, 4242ull}) {
        const std::vector<Injection> plan = randomSchedule(seed, 150);

        sim::ShardedEngine sharded(2);
        runTraffic(sharded, 1, plan);

        ASSERT_GT(sharded.quantaExecuted(), 0u) << "seed " << seed;
        if (sharded.windowTicksAvg().count() > 0) {
            EXPECT_GE(sharded.windowTicksAvg().min(),
                      static_cast<double>(kWireLatency))
                << "seed " << seed;
        }
    }
}

TEST(WireChannelTest, LatencyAndCreditsPreserveFifoWithinTick)
{
    // A burst larger than the per-cycle rate crosses the wire over
    // several cycles but stays FIFO.
    sim::ShardedEngine eng(1);
    std::vector<Injection> burst;
    for (std::uint32_t i = 0; i < 8; ++i)
        burst.push_back({/*when=*/5, /*bytes=*/i + 1, /*seq=*/0,
                         /*numFlits=*/1});
    const std::vector<Arrival> arrivals = runTraffic(eng, 0, burst);
    ASSERT_EQ(arrivals.size(), burst.size());
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        EXPECT_LE(std::get<0>(arrivals[i - 1]), std::get<0>(arrivals[i]));
        EXPECT_LT(std::get<1>(arrivals[i - 1]), std::get<1>(arrivals[i]));
    }
}

TEST(WireChannelTest, CreditComesBackLatencyCyclesAfterTheSinkPop)
{
    // The credit census MultiGpuSystem::auditTeardown() relies on: a
    // delivered flit sitting unpopped in the sink holds one credit, and
    // the sink's pop sends it home exactly `latency` cycles later.
    sim::Engine eng;
    FlitBuffer source(16);
    FlitBuffer sink(4);
    WireChannel channel(eng, eng, "test.wire", source, sink,
                        /*flits_per_cycle=*/1, kWireLatency,
                        /*src_shard=*/0, /*dst_shard=*/0);
    EXPECT_EQ(channel.sinkCapacity(), sink.capacity());
    EXPECT_EQ(channel.credits(), sink.capacity());

    resetPacketIds();
    FlitPtr flit = makeFlit();
    flit->pkt = makePacket(PacketType::ReadReq, 0, 1, 0x1000);
    flit->occupiedBytes = 8;
    ASSERT_TRUE(source.tryPush(std::move(flit)));
    EXPECT_EQ(eng.run(), sim::RunStatus::Drained);
    ASSERT_EQ(sink.size(), 1u);
    EXPECT_EQ(channel.credits(), sink.capacity() - 1);

    const Tick popped_at = eng.now();
    sink.pop();
    EXPECT_EQ(eng.run(popped_at + kWireLatency - 1),
              sim::RunStatus::LimitHit);
    EXPECT_EQ(channel.credits(), sink.capacity() - 1);
    EXPECT_EQ(eng.run(), sim::RunStatus::Drained);
    EXPECT_EQ(eng.now(), popped_at + kWireLatency);
    EXPECT_EQ(channel.credits(), sink.capacity());
}

TEST(WireChannelTest, CrossShardCountersTrackRematerialization)
{
    const std::vector<Injection> plan = randomSchedule(42, 50);

    sim::ShardedEngine eng(2);
    sim::Engine &src_eng = eng.shard(0);
    sim::Engine &dst_eng = eng.shard(1);
    FlitBuffer source(1024);
    FlitBuffer sink(1024);
    WireChannel channel(src_eng, dst_eng, "test.wire", source, sink,
                        2, kWireLatency, 0, 1);
    eng.registerPort(channel);

    resetPacketIds();
    std::uint64_t drained = 0;
    sink.setOnPush([&] {
        dst_eng.schedule(1, [&] {
            while (!sink.empty()) {
                sink.pop();
                ++drained;
            }
        });
    });
    for (const Injection &inj : plan) {
        src_eng.schedule(inj.when, [&source, inj] {
            auto pkt = makePacket(PacketType::ReadReq, 0, 1, 0x1000);
            FlitPtr flit = makeFlit();
            flit->pkt = std::move(pkt);
            flit->occupiedBytes = static_cast<std::uint16_t>(inj.bytes);
            source.tryPush(std::move(flit));
        });
    }
    EXPECT_EQ(eng.run(), sim::RunStatus::Drained);

    EXPECT_TRUE(channel.crossShard());
    EXPECT_EQ(channel.flitsTransferred(), plan.size());
    EXPECT_EQ(channel.flitsRematerialized(), plan.size());
    EXPECT_EQ(drained, plan.size());
    EXPECT_GE(channel.maxIngressDepth(), 1u);
    EXPECT_GT(eng.quantaExecuted(), 0u);
}

} // namespace
} // namespace netcrafter::noc

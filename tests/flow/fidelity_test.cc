/**
 * @file
 * Tests for fidelity selection (CLI/env parsing), flow-lane
 * conservation (on the Figure 14 grid too) and determinism on real
 * runs, and the result-cache fidelity key.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "src/config/system_config.hh"
#include "src/exp/result_cache.hh"
#include "src/flow/fidelity.hh"
#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/sim/sharded_engine.hh"
#include "tests/harness/fig14_grid.hh"
#include "tests/harness/scoped_env.hh"

namespace netcrafter::flow {
namespace {

// Small problem, serial engine: fast enough for a unit test while
// still pushing thousands of packets through the flow lane.
harness::RunResult
runAt(const std::string &workload, Fidelity fidelity, double scale = 0.05,
      const config::SystemConfig &cfg = config::baselineConfig())
{
    harness::RunSpec spec;
    spec.workload = workload;
    spec.config = cfg;
    spec.scale = scale;
    spec.exec = sim::ExecPolicy{1, false, 1};
    spec.fidelity = fidelity;
    return harness::run(spec);
}

/**
 * Flow-lane conservation on every Figure 14 grid point at @p fidelity:
 * whatever the lane accepted, it delivered, packets and bytes alike.
 */
void
expectGridConserves(Fidelity fidelity)
{
    std::uint64_t fused = 0;
    for (const test::Fig14Point &point : test::fig14Grid()) {
        const auto r = runAt(point.app, fidelity, 0.05, point.config);
        EXPECT_EQ(r.flowPackets, r.flowPacketsDelivered) << point.label;
        EXPECT_EQ(r.flowBytesInjected, r.flowBytesDelivered)
            << point.label;
        fused += r.flowPackets;
    }
    EXPECT_GT(fused, 0u);
}

/** The fidelity overlayEnv() leaves on a spec starting at @p start. */
Fidelity
overlaidFidelity(Fidelity start)
{
    harness::RunSpec spec;
    spec.fidelity = start;
    harness::overlayEnv(spec);
    return spec.fidelity;
}

TEST(Fidelity, NamesRoundTrip)
{
    EXPECT_STREQ(fidelityName(Fidelity::Cycle), "cycle");
    EXPECT_STREQ(fidelityName(Fidelity::Flow), "flow");
    EXPECT_STREQ(fidelityName(Fidelity::Hybrid), "hybrid");
    EXPECT_EQ(parseFidelity("cycle"), Fidelity::Cycle);
    EXPECT_EQ(parseFidelity("flow"), Fidelity::Flow);
    EXPECT_EQ(parseFidelity("hybrid"), Fidelity::Hybrid);
    EXPECT_EQ(parseFidelity("Cycle"), std::nullopt);
    EXPECT_EQ(parseFidelity(""), std::nullopt);
    EXPECT_EQ(parseFidelity("fast"), std::nullopt);
}

TEST(FidelityDeathTest, GarbageArgumentIsFatal)
{
    EXPECT_DEATH(parseFidelityOrDie("warp", "--fidelity"),
                 "invalid --fidelity value 'warp'");
}

TEST(FidelityDeathTest, GarbageEnvironmentIsFatal)
{
    // A sweep silently running at the wrong fidelity is worse than an
    // early exit, so the overlay validates instead of ignoring.
    test::ScopedEnv env;
    env.set("NETCRAFTER_FIDELITY", "approximately");
    EXPECT_DEATH((void)overlaidFidelity(Fidelity::Cycle),
                 "NETCRAFTER_FIDELITY");
}

TEST(Fidelity, EnvironmentSelectsAndFallsBack)
{
    test::ScopedEnv env;
    env.set("NETCRAFTER_FIDELITY", "hybrid");
    EXPECT_EQ(overlaidFidelity(Fidelity::Cycle), Fidelity::Hybrid);
    env.set("NETCRAFTER_FIDELITY", "flow");
    EXPECT_EQ(overlaidFidelity(Fidelity::Cycle), Fidelity::Flow);
    env.unset("NETCRAFTER_FIDELITY");
    EXPECT_EQ(overlaidFidelity(Fidelity::Cycle), Fidelity::Cycle);
    EXPECT_EQ(overlaidFidelity(Fidelity::Hybrid), Fidelity::Hybrid);
    // Empty string counts as unset, not as garbage.
    env.set("NETCRAFTER_FIDELITY", "");
    EXPECT_EQ(overlaidFidelity(Fidelity::Flow), Fidelity::Flow);
}

TEST(FlowLane, CycleModeNeverTouchesTheFlowLane)
{
    const auto r = runAt("GUPS", Fidelity::Cycle);
    EXPECT_EQ(r.fidelity, Fidelity::Cycle);
    EXPECT_EQ(r.flowPackets, 0u);
    EXPECT_EQ(r.flowBytesInjected, 0u);
    EXPECT_EQ(r.flowRecomputes, 0u);
}

TEST(FlowLane, FlowModeConservesPacketsAndBytes)
{
    const auto r = runAt("GUPS", Fidelity::Flow);
    EXPECT_EQ(r.fidelity, Fidelity::Flow);
    // The run must actually exercise the lane...
    EXPECT_GT(r.flowPackets, 0u);
    EXPECT_GT(r.flowBytesInjected, 0u);
    // ...and every epoch-boundary conversion must conserve exactly:
    // nothing the flow lane accepted may be lost or duplicated.
    EXPECT_EQ(r.flowPackets, r.flowPacketsDelivered);
    EXPECT_EQ(r.flowBytesInjected, r.flowBytesDelivered);
    expectGridConserves(Fidelity::Flow);
}

TEST(FlowLane, HybridModeConservesAcrossLaneTransitions)
{
    // MVT settles into steady state, so hybrid both activates lanes and
    // (on instability) escalates back — the conversion paths in both
    // directions must conserve.
    const auto r = runAt("MVT", Fidelity::Hybrid, 0.1);
    EXPECT_EQ(r.fidelity, Fidelity::Hybrid);
    EXPECT_GT(r.flowCyclePackets, 0u);
    EXPECT_EQ(r.flowPackets, r.flowPacketsDelivered);
    EXPECT_EQ(r.flowBytesInjected, r.flowBytesDelivered);
    expectGridConserves(Fidelity::Hybrid);
}

TEST(FlowLane, FlowModeIsDeterministic)
{
    // The flow lane is integer-only by construction; two identical runs
    // must agree on every measurement, not just approximately.
    const auto a = runAt("MT", Fidelity::Flow);
    const auto b = runAt("MT", Fidelity::Flow);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.flowPackets, b.flowPackets);
    EXPECT_EQ(a.flowBytesInjected, b.flowBytesInjected);
    EXPECT_EQ(a.flowMd1WaitTicks, b.flowMd1WaitTicks);
    EXPECT_EQ(a.flowFifoWaitTicks, b.flowFifoWaitTicks);
    EXPECT_TRUE(harness::sameMeasurement(a, b));
}

/** The cache key of GUPS on the baseline system at @p fidelity. */
exp::CacheKey
gupsKey(Fidelity fidelity)
{
    harness::RunSpec spec;
    spec.workload = "GUPS";
    spec.config = config::baselineConfig();
    spec.fidelity = fidelity;
    return exp::keyOf(spec);
}

TEST(CacheKeyFidelity, FidelityIsPartOfTheKey)
{
    const auto cycle_key = gupsKey(Fidelity::Cycle);
    const auto flow_key = gupsKey(Fidelity::Flow);
    const auto hybrid_key = gupsKey(Fidelity::Hybrid);
    EXPECT_FALSE(cycle_key == flow_key);
    EXPECT_FALSE(cycle_key == hybrid_key);
    EXPECT_FALSE(flow_key == hybrid_key);
    // A spec that leaves fidelity at its default has the cycle key:
    // pre-fidelity call sites keep their exact cache identity.
    harness::RunSpec spec;
    spec.workload = "GUPS";
    spec.config = config::baselineConfig();
    EXPECT_TRUE(exp::keyOf(spec) == cycle_key);
}

TEST(CacheKeyFidelity, ApproximateResultNeverAnswersACycleRequest)
{
    // Regression for the one way the cache could silently lie: a flow
    // run populating the entry a later cycle-accurate request reads.
    exp::ResultCache cache;

    harness::RunResult flow_result;
    flow_result.workload = "GUPS";
    flow_result.cycles = 111;
    flow_result.fidelity = Fidelity::Flow;

    harness::RunResult cycle_result;
    cycle_result.workload = "GUPS";
    cycle_result.cycles = 222;

    bool hit = true;
    const auto first = cache.getOrRun(
        gupsKey(Fidelity::Flow), [&] { return flow_result; }, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(first.cycles, 111u);

    const auto second = cache.getOrRun(
        gupsKey(Fidelity::Cycle), [&] { return cycle_result; }, &hit);
    EXPECT_FALSE(hit) << "cycle request must miss a flow-filled cache";
    EXPECT_EQ(second.cycles, 222u);

    // Each fidelity hits its own entry on re-request.
    const auto again = cache.getOrRun(
        gupsKey(Fidelity::Flow), [&] { return cycle_result; }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(again.cycles, 111u);
    EXPECT_EQ(cache.size(), 2u);
}

} // namespace
} // namespace netcrafter::flow

/**
 * @file
 * Serial-vs-sharded determinism: the same (workload, config) run on 1,
 * 2, and 4 engine shards must produce bit-identical measurements —
 * figure outputs and the event census alike. These points mirror the
 * fig03 (baseline vs ideal) and fig14 (cumulative NetCrafter
 * mechanisms) grids at test scale.
 */

#include <gtest/gtest.h>

#include "src/harness/runner.hh"
#include "src/sim/sharded_engine.hh"

namespace netcrafter {
namespace {

config::SystemConfig
shrink(config::SystemConfig cfg)
{
    cfg.cusPerGpu = 8;
    cfg.maxWavesPerCu = 4;
    return cfg;
}

constexpr double kTinyScale = 0.34;

void
expectShardInvariant(const std::string &app,
                     const config::SystemConfig &cfg, unsigned shards)
{
    const harness::RunResult serial =
        harness::runWorkload(app, cfg, kTinyScale, 1);
    const harness::RunResult parallel =
        harness::runWorkload(app, cfg, kTinyScale, shards);

    EXPECT_TRUE(sameMeasurement(serial, parallel))
        << app << " diverged at " << shards << " shards: serial "
        << serial.cycles << " cycles / " << serial.events
        << " events, sharded " << parallel.cycles << " cycles / "
        << parallel.events << " events";
    // The event census must match exactly, not just the figures.
    EXPECT_EQ(serial.events, parallel.events) << app;
    EXPECT_EQ(serial.interFlits, parallel.interFlits) << app;
    // Wire-head conservation: every transferred inter-cluster flit is
    // delivered, whether or not it crossed a shard boundary.
    for (const harness::RunResult *r : {&serial, &parallel}) {
        EXPECT_EQ(r->wireFlitsDelivered, r->interFlits)
            << app << " at " << r->shards << " shard(s)";
        EXPECT_EQ(r->wireBytesDelivered, r->interWireBytes)
            << app << " at " << r->shards << " shard(s)";
    }

    EXPECT_EQ(serial.shards, 1u);
    EXPECT_EQ(serial.crossShardFlits, 0u);
    if (shards > 1) {
        EXPECT_EQ(parallel.shards, shards) << app;
        EXPECT_GT(parallel.quantaExecuted, 0u) << app;
        if (parallel.interFlits > 0) {
            EXPECT_GT(parallel.crossShardFlits, 0u) << app;
        }
    }
}

TEST(ShardedDeterminismTest, Fig03PointBaselineTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::baselineConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig03PointIdealTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::idealConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig14PointFullNetcrafterTwoShards)
{
    // Full NetCrafter exercises stitched flits (with pooled piece
    // packets) crossing the shard boundary.
    expectShardInvariant("MT", shrink(config::netcrafterConfig()), 2);
}

TEST(ShardedDeterminismTest, Fig14PointSectorCacheTwoShards)
{
    expectShardInvariant("GUPS", shrink(config::sectorCacheConfig(16)),
                         2);
}

TEST(ShardedDeterminismTest, FourClustersFourShards)
{
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    expectShardInvariant("GUPS", cfg, 4);

    config::SystemConfig nc = shrink(config::netcrafterConfig());
    nc.numClusters = 4;
    nc.gpusPerCluster = 1;
    expectShardInvariant("MT", nc, 4);
}

/**
 * The work-stealing bit-identity grid: the same (workload, config) at
 * 1, 2, and 4 shards, stealing on and off, across executor thread
 * counts. Every combination must reproduce the serial measurement —
 * flit census, figure metrics, and the full event count — because the
 * claim ledger only picks WHO executes a whole-window unit, never what
 * the unit does.
 */
TEST(ShardedDeterminismTest, StealingIsBitIdenticalAcrossTheGrid)
{
    config::SystemConfig cfg = shrink(config::netcrafterConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    const std::string app = "MT";
    const obs::TraceOptions no_trace;

    const harness::RunResult serial =
        harness::runWorkload(app, cfg, kTinyScale, 1, no_trace);

    struct GridPoint
    {
        unsigned shards;
        sim::ExecPolicy exec;
    };
    const GridPoint grid[] = {
        {2, {0, false, 1}}, {2, {1, true, 1}},  {2, {2, true, 1}},
        {4, {0, false, 1}}, {4, {1, false, 1}}, {4, {2, false, 1}},
        {4, {2, true, 1}},  {4, {4, true, 1}},  {4, {2, true, 64}},
    };
    for (const GridPoint &point : grid) {
        const harness::RunResult run = harness::runWorkload(
            app, cfg, kTinyScale, point.shards, no_trace, point.exec);
        EXPECT_TRUE(sameMeasurement(serial, run))
            << app << " diverged at " << point.shards << " shards, "
            << point.exec.threads << " threads, steal="
            << point.exec.steal << ": serial " << serial.cycles
            << " cycles / " << serial.events << " events, got "
            << run.cycles << " cycles / " << run.events << " events";
        EXPECT_EQ(serial.events, run.events);
        EXPECT_EQ(serial.interFlits, run.interFlits);
        // The deterministic stall census is executor-invariant too,
        // and the steal bookkeeping stays internally consistent.
        EXPECT_EQ(run.stealAttempts, run.stealsWon + run.stealsAborted);
        EXPECT_LE(run.coveredStallTicks, run.barrierStallTicks);
        const unsigned expect_threads =
            point.exec.threads == 0
                ? point.shards
                : std::min(point.exec.threads, point.shards);
        EXPECT_EQ(run.workThreads, expect_threads);
    }
}

TEST(ShardedDeterminismTest, StallCensusIsThreadCountInvariant)
{
    // barrierStallTicks is sim-tick arithmetic over the round protocol
    // and must not move with the executor mapping; only the covered /
    // residual split (host-schedule diagnostics) may differ.
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    const obs::TraceOptions no_trace;

    const harness::RunResult four = harness::runWorkload(
        "GUPS", cfg, kTinyScale, 4, no_trace, sim::ExecPolicy{0, false, 1});
    const harness::RunResult mux = harness::runWorkload(
        "GUPS", cfg, kTinyScale, 4, no_trace, sim::ExecPolicy{1, false, 1});
    const harness::RunResult steal = harness::runWorkload(
        "GUPS", cfg, kTinyScale, 4, no_trace, sim::ExecPolicy{2, true, 1});

    EXPECT_TRUE(sameMeasurement(four, mux));
    EXPECT_TRUE(sameMeasurement(four, steal));
    EXPECT_EQ(four.barrierStallTicks, mux.barrierStallTicks);
    EXPECT_EQ(four.barrierStallTicks, steal.barrierStallTicks);
    EXPECT_EQ(four.quantaExecuted, mux.quantaExecuted);
    EXPECT_EQ(four.quantaExecuted, steal.quantaExecuted);
    // A single executor multiplexing four shards covers every round's
    // stall except the last unit's — the covered share must be real.
    if (mux.barrierStallTicks > 0) {
        EXPECT_GT(mux.coveredStallTicks, 0u);
    }
}

TEST(ShardedDeterminismTest, TwoShardsMatchFourShardsOnMesh)
{
    // Shard counts that don't divide the system evenly still agree.
    config::SystemConfig cfg = shrink(config::baselineConfig());
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    const harness::RunResult two =
        harness::runWorkload("GUPS", cfg, kTinyScale, 2);
    const harness::RunResult four =
        harness::runWorkload("GUPS", cfg, kTinyScale, 3);
    EXPECT_TRUE(sameMeasurement(two, four));
}

} // namespace
} // namespace netcrafter

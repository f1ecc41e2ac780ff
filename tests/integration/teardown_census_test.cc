/**
 * @file
 * Teardown census: aborted runs must be detected before a sharded
 * system is destroyed, because pending events hold pooled handles whose
 * thread-local arenas die with the worker threads. After a drained run,
 * serial or sharded, every miss, waiter and outstanding-request table
 * must be empty and every wire channel's credits home. A completed run
 * passes the census; an aborted sharded run panics, naming the tick.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "src/gpu/system.hh"
#include "src/workloads/workload.hh"

namespace netcrafter {
namespace {

config::SystemConfig
tinyConfig()
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.cusPerGpu = 8;
    cfg.maxWavesPerCu = 4;
    return cfg;
}

TEST(TeardownCensus, CompletedRunPassesTheCensus)
{
    gpu::MultiGpuSystem system(tinyConfig(), 2);
    auto wl = workloads::makeWorkload("GUPS");
    const sim::RunStatus status = system.runFor(*wl, 0.34);
    EXPECT_EQ(status, sim::RunStatus::Drained);
    system.auditTeardown(); // must not panic
}

TEST(TeardownCensus, DrainedSerialRunLeavesEveryTableEmpty)
{
    // Full NetCrafter exercises the controller holding area and the
    // trimmed-fill replays on top of the baseline miss path.
    for (const bool netcrafter : {false, true}) {
        config::SystemConfig cfg = netcrafter ? config::netcrafterConfig()
                                              : config::baselineConfig();
        cfg.cusPerGpu = 8;
        cfg.maxWavesPerCu = 4;
        gpu::MultiGpuSystem system(cfg, 1);
        auto wl = workloads::makeWorkload("SPMV");
        EXPECT_EQ(system.runFor(*wl, 0.34), sim::RunStatus::Drained);
        EXPECT_EQ(system.outstandingRequests(), 0u);
        system.auditTeardown(); // panics naming a non-empty component
    }
}

TEST(TeardownCensus, SerialAbortedRunReportsLimitHit)
{
    // Serial systems keep every pooled arena on the caller's thread, so
    // an aborted run is safe to destroy; runFor() reports the abort
    // instead of terminating the process the way run() does.
    gpu::MultiGpuSystem system(tinyConfig(), 1);
    auto wl = workloads::makeWorkload("GUPS");
    const sim::RunStatus status =
        system.runFor(*wl, 0.34, /*max_cycles=*/500);
    EXPECT_EQ(status, sim::RunStatus::LimitHit);
    system.auditTeardown(); // in-flight state is expected: no panic
}

TEST(TeardownCensusDeathTest, AbortedShardedRunPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Construct, abort, and audit entirely inside the death-test child:
    // the parent never holds an aborted sharded system, whose
    // destruction is exactly the undefined behaviour the census guards
    // against.
    EXPECT_DEATH(
        {
            gpu::MultiGpuSystem system(tinyConfig(), 2);
            auto wl = workloads::makeWorkload("GUPS");
            const sim::RunStatus status =
                system.runFor(*wl, 0.34, /*max_cycles=*/500);
            if (status == sim::RunStatus::Drained) {
                // Mis-calibrated cap: exit cleanly so the death
                // expectation fails loudly rather than hanging.
                std::_Exit(0);
            }
            system.auditTeardown();
            std::_Exit(0);
        },
        "teardown census at tick [0-9]+: ");
}

} // namespace
} // namespace netcrafter

/**
 * @file
 * Tier-1 determinism tests for the thread-pool sweep scheduler: a
 * parallel run must produce RunResults bit-identical to serial
 * execution, and a cached sweep must simulate each unique
 * (workload, config digest, scale) point exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/exp/export.hh"
#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"
#include "src/exp/sweep.hh"

namespace netcrafter::exp {
namespace {

/** Shrunken system so each simulation finishes in milliseconds. */
config::SystemConfig
tiny(bool netcrafter = false)
{
    config::SystemConfig cfg = netcrafter ? config::netcrafterConfig()
                                          : config::baselineConfig();
    cfg.cusPerGpu = 4;
    cfg.maxWavesPerCu = 2;
    return cfg;
}

SweepSpec
smallSweep()
{
    SweepSpec spec("determinism");
    spec.addGrid({"GUPS", "MT"},
                 {{"base", tiny(false)}, {"nc", tiny(true)}}, 0.1);
    return spec;
}

TEST(Scheduler, ParallelMatchesSerialBitExactly)
{
    const SweepSpec spec = smallSweep();

    Scheduler::Options serial_opts;
    serial_opts.workers = 1;
    Scheduler serial(serial_opts);
    const SweepResult s = serial.run(spec);

    Scheduler::Options parallel_opts;
    parallel_opts.workers = 4;
    ResultCache cache;
    Scheduler parallel(parallel_opts, &cache);
    const SweepResult p = parallel.run(spec);

    ASSERT_EQ(s.results.size(), spec.size());
    ASSERT_EQ(p.results.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        EXPECT_TRUE(harness::sameMeasurement(s.results[i], p.results[i]))
            << "job " << spec.jobs()[i].name
            << " diverged between serial and parallel execution";
    }
}

TEST(Scheduler, Fig03PointIdenticalSerialAndUnderParallelJobs)
{
    // A real fig03 point (full-size baseline config, shrunken scale),
    // as the figure binaries run it when NETCRAFTER_JOBS>1 engages the
    // thread pool: pool-worker execution must reproduce the plain
    // serial measurement bit-for-bit — including the hot-path census
    // (near/far event counts, callback-pool high water) that
    // sameMeasurement now also compares.
    harness::RunSpec run_spec;
    run_spec.workload = "GUPS";
    run_spec.config = config::baselineConfig();
    run_spec.scale = 0.05;
    const harness::RunResult serial = harness::run(run_spec);

    SweepSpec spec("fig03-point");
    spec.add("base/GUPS", "GUPS", config::baselineConfig(), 0.05);
    Scheduler::Options opts;
    opts.workers = 2;
    Scheduler sched(opts);
    const SweepResult res = sched.run(spec);
    EXPECT_TRUE(harness::sameMeasurement(serial, res.at("base/GUPS")));
}

TEST(Scheduler, CacheSimulatesEachUniquePointOnce)
{
    // Two sweeps sharing the cache: the second is served entirely from
    // memory, and duplicate points inside one sweep also collapse.
    SweepSpec spec("cached");
    spec.addGrid({"GUPS"}, {{"base", tiny(false)}}, 0.1);
    spec.add("base-again/GUPS", "GUPS", tiny(false), 0.1);

    ResultCache cache;
    Scheduler::Options opts;
    opts.workers = 2;
    Scheduler sched(opts, &cache);

    const SweepResult first = sched.run(spec);
    EXPECT_EQ(first.cacheMisses, 1u) << "one unique point";
    EXPECT_EQ(first.cacheHits, 1u) << "duplicate collapsed";
    EXPECT_TRUE(harness::sameMeasurement(first.at("base/GUPS"),
                                         first.at("base-again/GUPS")));

    const SweepResult second = sched.run(spec);
    EXPECT_EQ(second.cacheMisses, 0u) << "fully cache-served rerun";
    EXPECT_EQ(second.cacheHits, 2u);
    EXPECT_TRUE(harness::sameMeasurement(first.at("base/GUPS"),
                                         second.at("base/GUPS")));

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Scheduler, TimingsAndIndexPopulated)
{
    SweepSpec spec("timings");
    spec.add("a", "GUPS", tiny(false), 0.1);

    ResultCache cache;
    Scheduler sched(Scheduler::Options(), &cache);
    const SweepResult res = sched.run(spec);

    ASSERT_EQ(res.timings.size(), 1u);
    EXPECT_EQ(res.timings[0].name, "a");
    EXPECT_GT(res.timings[0].seconds, 0.0);
    EXPECT_FALSE(res.timings[0].cacheHit);
    EXPECT_GT(res.wallSeconds, 0.0);
    EXPECT_EQ(res.at("a").workload, "GUPS");
}

TEST(Scheduler, HistoryQualifiesJobNamesAcrossSweeps)
{
    SweepSpec a("sweep-a");
    a.add("x", "GUPS", tiny(false), 0.1);
    SweepSpec b("sweep-b");
    b.add("x", "GUPS", tiny(false), 0.1);

    ResultCache cache;
    Scheduler sched(Scheduler::Options(), &cache);
    sched.run(a);
    sched.run(b);

    ASSERT_EQ(sched.history().size(), 2u);
    EXPECT_EQ(sched.history()[0].first.name, "sweep-a/x");
    EXPECT_EQ(sched.history()[1].first.name, "sweep-b/x");
    EXPECT_TRUE(harness::sameMeasurement(sched.history()[0].second,
                                         sched.history()[1].second));

    // Export records inherit the qualified names, so the "job" column
    // is never empty for scheduler-run jobs.
    const auto records = recordsFromScheduler(sched);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].label, "sweep-a/x");
    EXPECT_EQ(records[1].label, "sweep-b/x");
    EXPECT_EQ(records[0].configDigest, tiny(false).digest());
}

TEST(Scheduler, ShardCountIsNotPartOfTheCacheKey)
{
    // Sharding is an execution strategy, not a design point: a serial
    // run populates the cache, and later 2- and 4-shard schedulers
    // sharing it must hit the same entry without re-simulating.
    SweepSpec spec("shard-invariant");
    spec.add("p/GUPS", "GUPS", tiny(false), 0.1);

    ResultCache cache;
    Scheduler::Options serial_opts;
    serial_opts.workers = 1;
    serial_opts.run.shards = 1;
    Scheduler serial(serial_opts, &cache);
    const SweepResult s = serial.run(spec);
    EXPECT_EQ(s.cacheMisses, 1u);

    for (unsigned shards : {2u, 4u}) {
        Scheduler::Options opts;
        opts.workers = 1;
        opts.run.shards = shards;
        Scheduler sharded(opts, &cache);
        EXPECT_EQ(sharded.shards(), shards);
        const SweepResult p = sharded.run(spec);
        EXPECT_EQ(p.cacheMisses, 0u)
            << shards << " shards re-simulated a cached point";
        EXPECT_EQ(p.cacheHits, 1u);
        EXPECT_TRUE(harness::sameMeasurement(s.at("p/GUPS"),
                                             p.at("p/GUPS")));
    }
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Scheduler, ShardsDivideTheAutoWorkerCount)
{
    // With an automatic worker count, run-level workers x intra-run
    // shards must not oversubscribe the host.
    Scheduler::Options opts;
    opts.workers = 0;
    opts.run.shards = 4;
    Scheduler sched(opts);
    EXPECT_EQ(sched.workers(), std::max(1u, hostCpus() / 4));
    EXPECT_EQ(sched.shards(), 4u);

    // An explicit worker count is honored as given.
    opts.workers = 3;
    Scheduler manual(opts);
    EXPECT_EQ(manual.workers(), 3u);
}

TEST(Scheduler, AutoWorkersFollowTheAffinityMask)
{
    // The automatic worker count reads the affinity mask, so a sweep
    // confined to fewer CPUs than the machine has never oversubscribes
    // them.
#if defined(__linux__)
    cpu_set_t saved;
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    if (CPU_COUNT(&saved) < 2)
        GTEST_SKIP() << "needs a host with at least 2 CPUs";
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &saved)) {
            CPU_SET(cpu, &one);
            break;
        }
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const unsigned pinned = Scheduler(Scheduler::Options{}).workers();
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(pinned, 1u);
    EXPECT_EQ(Scheduler(Scheduler::Options{}).workers(),
              static_cast<unsigned>(CPU_COUNT(&saved)));
#else
    GTEST_SKIP() << "affinity masks are Linux-only";
#endif
}

TEST(Scheduler, CacheKeysOnTheSimulatedScale)
{
    // The scale multiplier changes what a job simulates, so two
    // schedulers sharing a cache with different multipliers must not
    // answer each other's requests.
    SweepSpec spec("scaled");
    spec.add("GUPS", "GUPS", tiny(), 0.1);
    ResultCache cache;
    Scheduler::Options opts;
    opts.workers = 1;
    const SweepResult plain = Scheduler(opts, &cache).run(spec);
    opts.run.scale = 2.0;
    const SweepResult doubled = Scheduler(opts, &cache).run(spec);

    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(plain.cacheMisses, 1u);
    EXPECT_EQ(doubled.cacheMisses, 1u);
}

TEST(SchedulerDeathTest, UnknownResultNameIsFatal)
{
    SweepResult res;
    EXPECT_EXIT(res.at("nope"), testing::ExitedWithCode(1),
                "no job named");
}

} // namespace
} // namespace netcrafter::exp

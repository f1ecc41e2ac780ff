/** @file Tests for the (workload, config digest, scale) result cache. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/exp/result_cache.hh"

namespace netcrafter::exp {
namespace {

harness::RunResult
fakeResult(Tick cycles)
{
    harness::RunResult r;
    r.workload = "fake";
    r.cycles = cycles;
    return r;
}

/** A closed-loop spec running @p workload on the baseline system. */
harness::RunSpec
baselineSpec(const char *workload)
{
    harness::RunSpec spec;
    spec.workload = workload;
    spec.config = config::baselineConfig();
    return spec;
}

TEST(CacheKey, OrderingAndEquality)
{
    const CacheKey a{"GUPS", 1, 1.0};
    const CacheKey b{"GUPS", 2, 1.0};
    const CacheKey c{"GUPS", 1, 2.0};
    EXPECT_TRUE(a == a);
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a < b);
    EXPECT_TRUE(a < c);
}

TEST(CacheKey, KeyOfUsesConfigDigest)
{
    const harness::RunSpec a = baselineSpec("GUPS");
    harness::RunSpec b = baselineSpec("GUPS");
    EXPECT_TRUE(keyOf(a) == keyOf(b));

    b.config.interClusterGBps = 32.0;
    EXPECT_FALSE(keyOf(a) == keyOf(b));
}

TEST(CacheKey, ServeScenarioIsPartOfTheKey)
{
    harness::RunSpec a = baselineSpec("serve-poisson");
    a.serve.enabled = true;
    harness::RunSpec b = a;
    EXPECT_TRUE(keyOf(a) == keyOf(b));
    EXPECT_NE(keyOf(a).serveDigest, 0u);

    // Every serving knob must feed the digest: two specs differing in
    // any of them are distinct simulation points.
    b = a;
    b.serve.offeredLoad = a.serve.offeredLoad * 2;
    EXPECT_FALSE(keyOf(a) == keyOf(b));

    b = a;
    b.serve.arrival = serve::ArrivalKind::Bursty;
    EXPECT_FALSE(keyOf(a) == keyOf(b));

    b = a;
    b.serve.mix.weight[0] += 0.1;
    EXPECT_FALSE(keyOf(a) == keyOf(b));

    b = a;
    b.serve.seed += 1;
    EXPECT_FALSE(keyOf(a) == keyOf(b));

    b = a;
    b.serve.warmupTicks += 1;
    EXPECT_FALSE(keyOf(a) == keyOf(b));

    b = a;
    b.serve.measureTicks += 1;
    EXPECT_FALSE(keyOf(a) == keyOf(b));
}

TEST(CacheKey, ClosedLoopKeysUnchangedByServeFields)
{
    // Mirror of the shards-excluded guarantee: a spec that never
    // enables serving keeps the pre-serving cache identity (serveDigest
    // 0), no matter what the dormant serve fields hold.
    const harness::RunSpec a = baselineSpec("GUPS");
    harness::RunSpec b = a;
    b.serve.offeredLoad = 99.0;
    b.serve.seed = 1234;
    EXPECT_TRUE(keyOf(a) == keyOf(b));
    EXPECT_EQ(keyOf(a).serveDigest, 0u);
}

TEST(ResultCache, MissThenHit)
{
    ResultCache cache;
    const CacheKey key{"GUPS", 42, 1.0};
    int runs = 0;
    auto run = [&] {
        ++runs;
        return fakeResult(100);
    };

    bool hit = true;
    auto first = cache.getOrRun(key, run, &hit);
    EXPECT_FALSE(hit);
    auto second = cache.getOrRun(key, run, &hit);
    EXPECT_TRUE(hit);

    EXPECT_EQ(runs, 1);
    EXPECT_EQ(first.cycles, 100u);
    EXPECT_EQ(second.cycles, 100u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, ConcurrentRequestsRunOnce)
{
    ResultCache cache;
    const CacheKey key{"GUPS", 7, 1.0};
    std::atomic<int> runs{0};

    std::vector<std::thread> threads;
    std::vector<Tick> seen(8, 0);
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&, t] {
            auto r = cache.getOrRun(key, [&] {
                ++runs;
                // Give other requesters time to pile onto the same key.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
                return fakeResult(123);
            });
            seen[t] = r.cycles;
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(runs.load(), 1);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 7u);
    for (Tick c : seen)
        EXPECT_EQ(c, 123u);
}

TEST(ResultCache, SnapshotListsCompletedEntries)
{
    ResultCache cache;
    cache.getOrRun(CacheKey{"A", 1, 1.0}, [] { return fakeResult(1); });
    cache.getOrRun(CacheKey{"B", 2, 0.5}, [] { return fakeResult(2); });

    const auto snap = cache.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].first.workload, "A");
    EXPECT_EQ(snap[0].second.cycles, 1u);
    EXPECT_EQ(snap[1].first.workload, "B");
    EXPECT_DOUBLE_EQ(snap[1].first.scale, 0.5);
}

} // namespace
} // namespace netcrafter::exp

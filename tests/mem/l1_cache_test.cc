/** @file Unit tests for the write-through, optionally sectored L1. */

#include <gtest/gtest.h>

#include <deque>

#include "src/mem/l1_cache.hh"
#include "src/sim/engine.hh"

namespace netcrafter::mem {
namespace {

/** Records fill requests; the test decides what each fill returns. */
struct FillStub
{
    std::deque<FillRequest> pending;

    L1Cache::FillFn
    fn()
    {
        return [this](FillRequest req) {
            pending.push_back(std::move(req));
        };
    }

    void
    answer(SectorMask mask)
    {
        ASSERT_FALSE(pending.empty());
        auto req = std::move(pending.front());
        pending.pop_front();
        req.complete(mask);
    }
};

struct L1Fixture : ::testing::Test
{
    sim::Engine engine;
    L1Params params;
    FillStub below;
    std::unique_ptr<L1Cache> l1;

    void
    build()
    {
        l1 = std::make_unique<L1Cache>(engine, "l1", params,
                                       below.fn());
    }
};

TEST_F(L1Fixture, MissGoesBelowThenHits)
{
    build();
    int done = 0;
    ASSERT_TRUE(l1->access(0x1000, 0, 8, false, [&] { ++done; }));
    engine.run();
    ASSERT_EQ(below.pending.size(), 1u);
    EXPECT_EQ(below.pending.front().line, 0x1000u);
    EXPECT_EQ(below.pending.front().bytes, 8u);
    below.answer(fullMask(1));
    engine.run();
    EXPECT_EQ(done, 1);

    // Second access hits without going below.
    ASSERT_TRUE(l1->access(0x1000, 8, 8, false, [&] { ++done; }));
    engine.run();
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(below.pending.empty());
    EXPECT_EQ(l1->readHits(), 1u);
    EXPECT_EQ(l1->readMisses(), 1u);
}

TEST_F(L1Fixture, HitLatencyIsLookupLatency)
{
    build();
    l1->access(0x40, 0, 4, false, [] {});
    engine.run();
    below.answer(fullMask(1));
    engine.run();
    const Tick start = engine.now();
    Tick done = 0;
    l1->access(0x40, 0, 4, false, [&] { done = engine.now(); });
    engine.run();
    EXPECT_EQ(done - start, params.lookupLatency);
}

TEST_F(L1Fixture, ConcurrentMissesMergeInMshr)
{
    build();
    int done = 0;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(l1->access(0x2000, 0, 4, false, [&] { ++done; }));
    engine.run();
    EXPECT_EQ(below.pending.size(), 1u); // merged
    below.answer(fullMask(1));
    engine.run();
    EXPECT_EQ(done, 3);
}

TEST_F(L1Fixture, RejectsWhenMshrFull)
{
    params.mshrEntries = 2;
    build();
    EXPECT_TRUE(l1->access(0x40, 0, 4, false, [] {}));
    EXPECT_TRUE(l1->access(0x80, 0, 4, false, [] {}));
    engine.run();
    EXPECT_FALSE(l1->access(0xC0, 0, 4, false, [] {}));
    EXPECT_GT(l1->rejections(), 0u);
}

TEST_F(L1Fixture, SectoredHitNeedsCoveringSectors)
{
    params.sectorBytes = 16;
    build();
    int done = 0;
    l1->access(0x1000, 0, 8, false, [&] { ++done; });
    engine.run();
    below.answer(0b0001); // only sector 0 filled (a trimmed response)
    engine.run();
    EXPECT_EQ(done, 1);

    // Same line, sector 2: must miss and go below again.
    l1->access(0x1000, 32, 8, false, [&] { ++done; });
    engine.run();
    ASSERT_EQ(below.pending.size(), 1u);
    EXPECT_EQ(below.pending.front().neededSectors, 0b0100u);
    below.answer(0b0100);
    engine.run();
    EXPECT_EQ(done, 2);
    EXPECT_EQ(l1->readMisses(), 2u);
}

TEST_F(L1Fixture, MergedWaiterUncoveredByTrimmedFillReplays)
{
    params.sectorBytes = 16;
    build();
    int first = 0, second = 0;
    // Primary miss needs sector 0; merged miss needs sector 3.
    l1->access(0x1000, 0, 8, false, [&] { ++first; });
    l1->access(0x1000, 48, 8, false, [&] { ++second; });
    engine.run();
    ASSERT_EQ(below.pending.size(), 1u);
    below.answer(0b0001); // trimmed: sector 0 only
    engine.run();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 0);
    // The replayed access issues a new fill for sector 3.
    ASSERT_EQ(below.pending.size(), 1u);
    EXPECT_EQ(below.pending.front().neededSectors, 0b1000u);
    below.answer(0b1000);
    engine.run();
    EXPECT_EQ(second, 1);
}

TEST_F(L1Fixture, WritesGoBelowAndRecycleSlots)
{
    params.mshrEntries = 2;
    build();
    EXPECT_TRUE(l1->access(0x40, 0, 64, true, nullptr));
    EXPECT_TRUE(l1->access(0x80, 0, 64, true, nullptr));
    engine.run();
    EXPECT_EQ(below.pending.size(), 2u);
    EXPECT_TRUE(below.pending.front().isWrite);
    // Slots exhausted by outstanding writes.
    EXPECT_FALSE(l1->access(0xC0, 0, 64, true, nullptr));
    below.answer(0);
    EXPECT_TRUE(l1->access(0xC0, 0, 64, true, nullptr));
    EXPECT_EQ(l1->writeAccesses(), 3u);
}

TEST_F(L1Fixture, WriteDoesNotAllocate)
{
    build();
    l1->access(0x40, 0, 64, true, nullptr);
    engine.run();
    below.answer(0);
    int done = 0;
    // A read to the written line still misses (no-allocate).
    l1->access(0x40, 0, 4, false, [&] { ++done; });
    engine.run();
    EXPECT_EQ(l1->readMisses(), 1u);
    below.answer(fullMask(1));
    engine.run();
    EXPECT_EQ(done, 1);
}

TEST_F(L1Fixture, UnalignedLinePanics)
{
    build();
    EXPECT_DEATH(l1->access(0x41, 0, 4, false, [] {}), "unaligned");
}

} // namespace
} // namespace netcrafter::mem

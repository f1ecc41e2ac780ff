/**
 * @file
 * Parameterized sweep of L1 sector granularities (Figure 17's 4/8/16B
 * plus the unsectored 64B case): fill/hit semantics, needed-sector
 * computation, and the monotone property that finer sectors can only
 * raise the miss count of a fixed access trace.
 */

#include <gtest/gtest.h>

#include <deque>

#include "src/mem/l1_cache.hh"
#include "src/sim/engine.hh"
#include "src/sim/random.hh"

namespace netcrafter::mem {
namespace {

class SectorSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(SectorSweep, NeededSectorsMatchGranularity)
{
    const std::uint32_t sector = GetParam();
    sim::Engine engine;
    L1Params params;
    params.sectorBytes = sector;
    std::deque<FillRequest> fills;
    L1Cache l1(engine, "l1", params,
               [&](FillRequest req) { fills.push_back(std::move(req)); });

    l1.access(0x1000, 0, 4, false, [] {});
    engine.run();
    ASSERT_EQ(fills.size(), 1u);
    EXPECT_EQ(fills.front().neededSectors, 0b1u);

    l1.access(0x1040, kCacheLineBytes - 4, 4, false, [] {});
    engine.run();
    ASSERT_EQ(fills.size(), 2u);
    EXPECT_EQ(fills.back().neededSectors,
              1ull << (kCacheLineBytes / sector - 1));
}

TEST_P(SectorSweep, SectorFillSatisfiesOnlyItsSector)
{
    const std::uint32_t sector = GetParam();
    if (sector == kCacheLineBytes)
        return; // the unsectored case has a single sector
    sim::Engine engine;
    L1Params params;
    params.sectorBytes = sector;
    std::deque<FillRequest> fills;
    L1Cache l1(engine, "l1", params,
               [&](FillRequest req) { fills.push_back(std::move(req)); });

    int done = 0;
    l1.access(0x2000, 0, 4, false, [&] { ++done; });
    engine.run();
    fills.front().complete(0b1);
    fills.pop_front();
    engine.run();
    EXPECT_EQ(done, 1);

    // Same sector hits; the other half of the line misses.
    l1.access(0x2000, sector / 2, 2, false, [&] { ++done; });
    engine.run();
    EXPECT_EQ(done, 2);
    EXPECT_TRUE(fills.empty());

    l1.access(0x2000, kCacheLineBytes / 2, 4, false, [&] { ++done; });
    engine.run();
    EXPECT_EQ(fills.size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Granularities, SectorSweep,
                         ::testing::Values(4u, 8u, 16u, 64u));

/**
 * Property: replaying one identical random access trace, miss counts
 * are monotonically non-increasing in sector size (finer sectors can
 * never hit more) when every fill returns exactly the needed sectors.
 */
TEST(SectorSweepProperty, FinerSectorsNeverMissLess)
{
    std::vector<std::uint64_t> misses;
    for (std::uint32_t sector : {4u, 8u, 16u, 64u}) {
        sim::Engine engine;
        L1Params params;
        params.sectorBytes = sector;
        std::deque<FillRequest> fills;
        L1Cache l1(engine, "l1", params, [&](FillRequest req) {
            fills.push_back(std::move(req));
        });

        Pcg32 rng(31337);
        for (int i = 0; i < 4000; ++i) {
            const Addr line = static_cast<Addr>(rng.below(512)) * 64;
            const std::uint32_t offset = 4 * rng.below(15);
            l1.access(line, offset, 4, false, [] {});
            engine.run();
            while (!fills.empty()) {
                auto req = std::move(fills.front());
                fills.pop_front();
                req.complete(req.neededSectors);
                engine.run();
            }
        }
        misses.push_back(l1.readMisses());
    }
    // 4B >= 8B >= 16B >= 64B misses.
    for (std::size_t i = 1; i < misses.size(); ++i)
        EXPECT_GE(misses[i - 1], misses[i]) << "sector step " << i;
    // And the spread is real, not degenerate.
    EXPECT_GT(misses.front(), misses.back());
}

} // namespace
} // namespace netcrafter::mem

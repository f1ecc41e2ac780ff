/** @file Unit tests for the MSHR file. */

#include <gtest/gtest.h>

#include "src/mem/mshr.hh"

namespace netcrafter::mem {
namespace {

TEST(Mshr, AllocateMergeRelease)
{
    Mshr<int> mshr(4);
    EXPECT_FALSE(mshr.outstanding(0x40));
    mshr.allocate(0x40, 1);
    EXPECT_TRUE(mshr.outstanding(0x40));
    mshr.merge(0x40, 2);
    mshr.merge(0x40, 3);
    auto chain = mshr.release(0x40);
    std::vector<int> waiters;
    for (int w = 0; mshr.next(chain, w);)
        waiters.push_back(w);
    EXPECT_EQ(waiters, (std::vector<int>{1, 2, 3}));
    EXPECT_FALSE(mshr.outstanding(0x40));
    EXPECT_EQ(mshr.allocations(), 1u);
    EXPECT_EQ(mshr.merges(), 2u);
}

TEST(Mshr, CapacityCountsDistinctAddresses)
{
    Mshr<int> mshr(2);
    mshr.allocate(0x40, 1);
    mshr.merge(0x40, 2); // merges don't consume entries
    mshr.allocate(0x80, 3);
    EXPECT_TRUE(mshr.full());
    auto chain = mshr.release(0x40);
    for (int w = 0; mshr.next(chain, w);) {
    }
    EXPECT_FALSE(mshr.full());
}

TEST(Mshr, DoubleAllocatePanics)
{
    Mshr<int> mshr(4);
    mshr.allocate(0x40, 1);
    EXPECT_DEATH(mshr.allocate(0x40, 2), "duplicate");
}

TEST(Mshr, MergeWithoutEntryPanics)
{
    Mshr<int> mshr(4);
    EXPECT_DEATH(mshr.merge(0x40, 1), "without outstanding");
}

TEST(Mshr, ReleaseWithoutEntryPanics)
{
    Mshr<int> mshr(4);
    EXPECT_DEATH(mshr.release(0x40), "without outstanding");
}

TEST(Mshr, AllocateWhenFullPanics)
{
    Mshr<int> mshr(1);
    mshr.allocate(0x40, 1);
    EXPECT_DEATH(mshr.allocate(0x80, 2), "overflow");
}

} // namespace
} // namespace netcrafter::mem

/**
 * @file
 * Allocation census of the cycle-fidelity memory path. Built as its own
 * executable because it replaces the global operator new to count heap
 * allocations.
 *
 * After one warm-up run has grown every pool, queue and table to its
 * high-water mark, a second run of the same Figure 14 point on the same
 * system may allocate only a per-run constant (building the workload's
 * kernels): fewer than one heap allocation per 10,000 simulated events.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/exp/figures.hh"
#include "src/gpu/system.hh"
#include "src/sim/small_fn.hh"
#include "src/workloads/workload.hh"

namespace {

bool gCounting = false;
std::uint64_t gAllocations = 0;

void *
countedAlloc(std::size_t bytes, std::size_t align)
{
    if (gCounting)
        ++gAllocations;
    void *p = align > alignof(std::max_align_t)
                  ? std::aligned_alloc(align, (bytes + align - 1) / align *
                                                  align)
                  : std::malloc(bytes != 0 ? bytes : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *operator new[](std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void *
operator new[](std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace netcrafter {
namespace {

TEST(AllocationCensus, SecondRunOfAFig14PointStaysOffTheHeap)
{
    for (const bool full : {false, true}) {
        SCOPED_TRACE(full ? "full/GUPS" : "base/GUPS");
        gpu::MultiGpuSystem sys(full ? exp::fullNetcrafter()
                                     : config::baselineConfig());
        auto warmup = workloads::makeWorkload("GUPS");
        ASSERT_EQ(sys.runFor(*warmup, 0.25), sim::RunStatus::Drained);

        auto wl = workloads::makeWorkload("GUPS");
        const std::uint64_t events_before = sys.engines().eventsExecuted();
        const std::uint64_t fallbacks = sim::SmallFn::heapAllocations();
        gAllocations = 0;
        gCounting = true;
        const sim::RunStatus status = sys.runFor(*wl, 0.25);
        gCounting = false;
        ASSERT_EQ(status, sim::RunStatus::Drained);

        const std::uint64_t events =
            sys.engines().eventsExecuted() - events_before;
        ASSERT_GT(events, 100'000u);
        EXPECT_LT(gAllocations * 10'000, events)
            << gAllocations << " heap allocations in " << events
            << " events";
        EXPECT_EQ(sim::SmallFn::heapAllocations(), fallbacks);
    }
}

} // namespace
} // namespace netcrafter

/**
 * @file
 * Golden census: every Figure 14 point (15 apps x {baseline, full
 * NetCrafter}, serial, scale 0.05) must reproduce its pinned event
 * count, cycle count and mean inter-cluster read latency bit for bit.
 * Host-side refactors of the hot path may not move any of them; a
 * modeling change that does must re-pin the table on purpose.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "src/exp/figures.hh"
#include "src/gpu/system.hh"
#include "src/workloads/workload.hh"

namespace netcrafter {
namespace {

struct GoldenPoint
{
    const char *app;
    bool full;
    std::uint64_t events;
    std::uint64_t cycles;
    /** Bits of the mean inter-cluster read latency (a double). */
    std::uint64_t latencyBits;
};

constexpr GoldenPoint kGolden[] = {
    {"GUPS", false, 674786ull, 28792ull, 0x40940b0f469d5eb6ull},
    {"MT", false, 212068ull, 14343ull, 0x4092302dce5754c3ull},
    {"MIS", false, 470418ull, 19309ull, 0x40972fff82171dc2ull},
    {"IM2COL", false, 31230ull, 4203ull, 0x40a07df78f78f78full},
    {"ATAX", false, 320439ull, 19545ull, 0x4090bc767d597da9ull},
    {"BS", false, 200334ull, 14511ull, 0x0000000000000000ull},
    {"MM2", false, 231206ull, 17058ull, 0x408b9a4e51561dafull},
    {"MVT", false, 583767ull, 28582ull, 0x409497c761607ee6ull},
    {"SPMV", false, 228187ull, 12237ull, 0x4094bca19b5cec89ull},
    {"PR", false, 989124ull, 37036ull, 0x409af3da3bf6c658ull},
    {"SR", false, 262439ull, 12862ull, 0x4096813ec384c13cull},
    {"SYR2K", false, 68688ull, 6440ull, 0x409a6550d79435e5ull},
    {"VGG16", false, 100018ull, 9884ull, 0x408ce845418bbfb1ull},
    {"LENET", false, 41959ull, 5839ull, 0x408e680d3dcb08d4ull},
    {"RNET18", false, 60211ull, 6927ull, 0x408871a3e9e63740ull},
    {"GUPS", true, 535174ull, 21604ull, 0x4086c54644d3e6deull},
    {"MT", true, 136814ull, 9470ull, 0x408267702918d456ull},
    {"MIS", true, 349946ull, 14510ull, 0x408d4ca30c489a01ull},
    {"IM2COL", true, 33138ull, 4067ull, 0x409cbd6ae6ae6ae7ull},
    {"ATAX", true, 320571ull, 18663ull, 0x4090c5a82cd8c256ull},
    {"BS", true, 201875ull, 14512ull, 0x0000000000000000ull},
    {"MM2", true, 184765ull, 13379ull, 0x40848bffaa22b6f7ull},
    {"MVT", true, 408149ull, 19438ull, 0x4084a16e27a7e046ull},
    {"SPMV", true, 162673ull, 8746ull, 0x4086eca0551e8b3cull},
    {"PR", true, 1007192ull, 28045ull, 0x4095a2fc547ab3e6ull},
    {"SR", true, 173669ull, 7887ull, 0x40870ee1f3111e0dull},
    {"SYR2K", true, 67166ull, 5657ull, 0x4099f456f76d03adull},
    {"VGG16", true, 105238ull, 9477ull, 0x40896e74404f2657ull},
    {"LENET", true, 44344ull, 5669ull, 0x408c8afb9611a7b9ull},
    {"RNET18", true, 63172ull, 6618ull, 0x40858e722fe2884aull},
};

TEST(GoldenCensus, Fig14PointsReproduceExactly)
{
    for (const GoldenPoint &p : kGolden) {
        SCOPED_TRACE(std::string(p.full ? "full/" : "base/") + p.app);
        auto wl = workloads::makeWorkload(p.app);
        gpu::MultiGpuSystem sys(p.full ? exp::fullNetcrafter()
                                       : config::baselineConfig());
        sys.run(*wl, 0.05);
        EXPECT_EQ(sys.engines().eventsExecuted(), p.events);
        EXPECT_EQ(sys.cycles(), p.cycles);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      sys.interClusterReadLatency().mean()),
                  p.latencyBits);
        sys.auditTeardown();
    }
}

} // namespace
} // namespace netcrafter

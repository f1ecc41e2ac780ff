/**
 * @file
 * Property tests on Cluster Queue invariants under randomized traffic:
 * per-class FIFO order is preserved, occupancy accounting is exact,
 * and candidate extraction never loses or duplicates flits.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "src/core/cluster_queue.hh"
#include "src/sim/random.hh"

namespace netcrafter::core {
namespace {

using noc::FlitPtr;
using noc::makePacket;
using noc::PacketType;
using noc::segmentPacket;

TEST(ClusterQueueProperty, PerClassFifoAndExactAccounting)
{
    Pcg32 rng(808);
    const PacketType types[] = {
        PacketType::ReadReq, PacketType::WriteReq, PacketType::ReadRsp,
        PacketType::WriteRsp, PacketType::PageTableReq,
    };

    for (int trial = 0; trial < 10; ++trial) {
        ClusterQueue cq(512, {1});
        // Per class: the sequence numbers pushed, to check FIFO pops.
        std::map<CqClass, std::deque<std::uint64_t>> expect;
        std::size_t in_queue = 0;
        std::uint64_t stamp = 0;
        std::map<const noc::Flit *, std::uint64_t> stamps;

        for (int op = 0; op < 3000; ++op) {
            const bool can_push = cq.hasSpace(1);
            if (can_push && (in_queue == 0 || rng.chance(0.55))) {
                auto pkt = makePacket(types[rng.below(5)], 0, 2,
                                      rng.next64() % (1 << 20) * 64);
                pkt->latencyCritical = pkt->isPtw();
                auto flits = segmentPacket(pkt, 16);
                auto &flit = flits[rng.below(
                    static_cast<std::uint32_t>(flits.size()))];
                const CqClass cls = cqClassOfPacket(*pkt);
                stamps[flit.get()] = stamp;
                expect[cls].push_back(stamp++);
                cq.push(1, std::move(flit));
                ++in_queue;
            } else if (in_queue > 0 && rng.chance(0.7)) {
                auto pick = cq.pickNext(op, false);
                ASSERT_TRUE(pick.has_value());
                FlitPtr f = cq.pop(*pick);
                auto &q = expect[pick->cls];
                ASSERT_FALSE(q.empty());
                EXPECT_EQ(stamps[f.get()], q.front()); // FIFO per class
                q.pop_front();
                --in_queue;
            } else if (in_queue > 0) {
                // Candidate extraction: removes exactly one fitting
                // flit from anywhere, never the excluded parent.
                FlitPtr cand =
                    cq.takeCandidate(1, 16, 64, nullptr);
                if (cand) {
                    auto &q = expect[cqClassOfPacket(*cand->pkt)];
                    // Remove its stamp wherever it sits.
                    auto it = std::find(q.begin(), q.end(),
                                        stamps[cand.get()]);
                    ASSERT_NE(it, q.end());
                    q.erase(it);
                    --in_queue;
                }
            }
            EXPECT_EQ(cq.occupancy(1), in_queue);
            EXPECT_EQ(cq.empty(), in_queue == 0);
        }
    }
}

TEST(ClusterQueueProperty, PickNextAlwaysServesNonEmptyQueue)
{
    // With soft timers, pickNext never returns nullopt while flits
    // remain, no matter how timers were armed — the no-idle invariant.
    Pcg32 rng(909);
    ClusterQueue cq(128, {1});
    for (int i = 0; i < 50; ++i) {
        auto pkt = makePacket(PacketType::ReadReq, 0, 2, i * 64);
        cq.push(1, segmentPacket(pkt, 16).front());
    }
    for (int t = 0; t < 200; ++t) {
        if (rng.chance(0.5)) {
            cq.blockUntil(CqPartitionId{1, CqClass::ReadReq},
                          t + rng.below(100));
        }
        if (cq.empty())
            break;
        auto pick = cq.pickNext(t, rng.chance(0.5));
        ASSERT_TRUE(pick.has_value()) << "idle with flits queued";
        if (rng.chance(0.8))
            cq.pop(*pick);
    }
}

} // namespace
} // namespace netcrafter::core

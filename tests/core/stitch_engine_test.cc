/** @file Unit and property tests for the Stitching Engine. */

#include <gtest/gtest.h>

#include "src/core/stitch_engine.hh"
#include "src/sim/random.hh"

namespace netcrafter::core {
namespace {

using noc::Flit;
using noc::FlitPtr;
using noc::makePacket;
using noc::PacketType;
using noc::segmentPacket;

FlitPtr
tailOf(PacketType type)
{
    return segmentPacket(makePacket(type, 0, 2, 0x40), 16).back();
}

FlitPtr
wholeOf(PacketType type)
{
    auto flits = segmentPacket(makePacket(type, 0, 2, 0x80), 16);
    EXPECT_EQ(flits.size(), 1u);
    return flits.front();
}

TEST(StitchEngine, WholePacketStitchesWithoutMetadata)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp); // 4B used, 12 free
    auto cand = wholeOf(PacketType::ReadReq);  // 12B whole packet
    ASSERT_TRUE(StitchEngine::fits(*parent, *cand));
    engine.stitch(*parent, cand);
    EXPECT_EQ(parent->stitched.size(), 1u);
    EXPECT_TRUE(parent->stitched[0].wholePacket);
    EXPECT_EQ(parent->usedBytes(), 16u);
    EXPECT_EQ(parent->freeBytes(), 0u);
    EXPECT_EQ(engine.stats().candidatesAbsorbed, 1u);
    EXPECT_EQ(engine.stats().metadataBytes, 0u);
}

TEST(StitchEngine, PartialCandidateCarriesIdAndSize)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp); // 12 free
    auto cand = tailOf(PacketType::ReadRsp);   // 4B payload tail
    ASSERT_TRUE(StitchEngine::fits(*parent, *cand));
    engine.stitch(*parent, cand);
    EXPECT_FALSE(parent->stitched[0].wholePacket);
    // 4 + (4 + 3B ID+Size metadata) = 11 bytes used.
    EXPECT_EQ(parent->usedBytes(), 11u);
    EXPECT_EQ(engine.stats().metadataBytes,
              noc::kPartialStitchMetaBytes);
}

TEST(StitchEngine, OversizedCandidateDoesNotFit)
{
    auto parent = wholeOf(PacketType::ReadReq); // only 4 free
    auto cand = wholeOf(PacketType::PageTableReq); // 12B
    EXPECT_FALSE(StitchEngine::fits(*parent, *cand));

    auto small = wholeOf(PacketType::WriteRsp); // 4B
    EXPECT_TRUE(StitchEngine::fits(*parent, *small));
}

TEST(StitchEngine, HeadOfMultiFlitPacketNeverACandidate)
{
    auto parent = tailOf(PacketType::ReadRsp);
    auto head = segmentPacket(makePacket(PacketType::ReadRsp, 0, 2, 0),
                              16)[0];
    EXPECT_FALSE(StitchEngine::fits(*parent, *head));
}

TEST(StitchEngine, StitchedParentIsNotACandidate)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp);
    engine.stitch(*parent, wholeOf(PacketType::WriteRsp));
    auto other = tailOf(PacketType::ReadRsp);
    EXPECT_FALSE(StitchEngine::fits(*other, *parent));
}

TEST(StitchEngine, MultipleCandidatesUntilFull)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp); // 12 free
    engine.stitch(*parent, wholeOf(PacketType::WriteRsp)); // 4B
    engine.stitch(*parent, wholeOf(PacketType::WriteRsp)); // 4B
    engine.stitch(*parent, wholeOf(PacketType::WriteRsp)); // 4B
    EXPECT_EQ(parent->freeBytes(), 0u);
    EXPECT_EQ(parent->stitched.size(), 3u);
    EXPECT_EQ(engine.stats().parentsStitched, 1u);
    EXPECT_EQ(engine.stats().candidatesAbsorbed, 3u);
}

TEST(StitchEngine, UnstitchRestoresOriginalFlits)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp);
    auto cand_whole = wholeOf(PacketType::ReadReq);
    const noc::PacketPtr cand_pkt = cand_whole->pkt;
    engine.stitch(*parent, std::move(cand_whole));

    std::vector<FlitPtr> restored;
    engine.unstitch(parent, restored);
    ASSERT_EQ(restored.size(), 2u);
    EXPECT_FALSE(restored[0]->isStitched());
    EXPECT_EQ(restored[0]->occupiedBytes, 4u);
    EXPECT_EQ(restored[1]->pkt.get(), cand_pkt.get());
    EXPECT_EQ(restored[1]->occupiedBytes, 12u);
    EXPECT_EQ(restored[1]->numFlits, 1u);
    EXPECT_EQ(engine.stats().unstitched, 1u);
}

TEST(StitchEngine, UnstitchPassesPlainFlitsThrough)
{
    StitchEngine engine;
    auto flit = wholeOf(PacketType::ReadReq);
    const Flit *ptr = flit.get();
    std::vector<FlitPtr> out;
    engine.unstitch(std::move(flit), out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].get(), ptr);
    EXPECT_EQ(engine.stats().unstitched, 0u);
}

TEST(StitchEngine, PartialUnstitchKeepsSeqAndCount)
{
    StitchEngine engine;
    auto parent = tailOf(PacketType::ReadRsp);
    auto cand = tailOf(PacketType::WriteReq); // seq 4 of 5, 12B
    // WriteReq tail: 12B occupied, partial wire = 15 > 12 free; use an
    // 8B-capacity... instead stitch a ReadRsp tail (4B, wire 7).
    cand = tailOf(PacketType::ReadRsp);
    const std::uint32_t seq = cand->seq;
    const std::uint32_t num = cand->numFlits;
    engine.stitch(*parent, cand);
    std::vector<FlitPtr> out;
    engine.unstitch(parent, out);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[1]->seq, seq);
    EXPECT_EQ(out[1]->numFlits, num);
    EXPECT_TRUE(out[1]->isTail());
}

/**
 * Property: for random stitch combinations, un-stitching restores every
 * byte of every packet exactly once.
 */
TEST(StitchEngineProperty, RandomRoundTripConservesBytes)
{
    Pcg32 rng(2024);
    StitchEngine engine;
    const PacketType kinds[] = {
        PacketType::ReadReq,  PacketType::WriteRsp,
        PacketType::PageTableReq, PacketType::PageTableRsp,
        PacketType::ReadRsp,
    };
    for (int trial = 0; trial < 200; ++trial) {
        auto parent = tailOf(PacketType::ReadRsp);
        std::uint32_t expected = parent->occupiedBytes;
        int absorbed = 0;
        for (int i = 0; i < 4; ++i) {
            auto type = kinds[rng.below(5)];
            auto cand = type == PacketType::ReadRsp ? tailOf(type)
                                                    : wholeOf(type);
            if (!StitchEngine::fits(*parent, *cand))
                continue;
            expected += cand->occupiedBytes;
            engine.stitch(*parent, std::move(cand));
            ++absorbed;
        }
        std::vector<FlitPtr> out;
        engine.unstitch(parent, out);
        ASSERT_EQ(out.size(), static_cast<std::size_t>(absorbed + 1));
        std::uint32_t got = 0;
        for (const auto &f : out) {
            EXPECT_FALSE(f->isStitched());
            got += f->occupiedBytes;
        }
        EXPECT_EQ(got, expected);
    }
}

} // namespace
} // namespace netcrafter::core

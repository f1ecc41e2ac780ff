/** @file Unit and parameterized tests for packet->flit segmentation. */

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "src/noc/flit.hh"

namespace netcrafter::noc {
namespace {

TEST(Flit, ReadRspSegmentsIntoFiveFlits)
{
    auto pkt = makePacket(PacketType::ReadRsp, 0, 1, 0x80);
    auto flits = segmentPacket(pkt, 16);
    ASSERT_EQ(flits.size(), 5u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(flits[i]->occupiedBytes, 16u);
        EXPECT_EQ(flits[i]->freeBytes(), 0u);
    }
    // Tail carries 68 - 64 = 4 bytes, leaving 12 padded (Figure 11).
    EXPECT_EQ(flits[4]->occupiedBytes, 4u);
    EXPECT_EQ(flits[4]->freeBytes(), 12u);
    EXPECT_TRUE(flits[4]->isTail());
    EXPECT_TRUE(flits[0]->isHead());
    EXPECT_FALSE(flits[0]->isTail());
}

TEST(Flit, SingleFlitPacketsHaveHeadEqualTail)
{
    auto pkt = makePacket(PacketType::ReadReq, 0, 1, 0x80);
    auto flits = segmentPacket(pkt, 16);
    ASSERT_EQ(flits.size(), 1u);
    EXPECT_TRUE(flits[0]->isHead());
    EXPECT_TRUE(flits[0]->isTail());
    EXPECT_EQ(flits[0]->occupiedBytes, 12u);
    EXPECT_EQ(flits[0]->freeBytes(), 4u);
}

TEST(Flit, SegmentationConservesBytes)
{
    for (PacketType t :
         {PacketType::ReadReq, PacketType::WriteReq,
          PacketType::PageTableReq, PacketType::ReadRsp,
          PacketType::WriteRsp, PacketType::PageTableRsp}) {
        auto pkt = makePacket(t, 0, 1, 0x40);
        auto flits = segmentPacket(pkt, 16);
        std::uint32_t sum = 0;
        for (const auto &f : flits)
            sum += f->occupiedBytes;
        EXPECT_EQ(sum, pkt->totalBytes()) << packetTypeName(t);
    }
}

TEST(Flit, TrimmedResponseSegmentsIntoTwoFlits)
{
    auto pkt = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    pkt->payloadBytes = 16;
    pkt->trimmed = true;
    auto flits = segmentPacket(pkt, 16);
    ASSERT_EQ(flits.size(), 2u);
    EXPECT_EQ(flits[0]->occupiedBytes, 16u);
    EXPECT_EQ(flits[1]->occupiedBytes, 4u);
}

TEST(Flit, StitchableRules)
{
    auto rsp = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    auto flits = segmentPacket(rsp, 16);
    EXPECT_FALSE(flits[0]->stitchable()); // head of multi-flit packet
    EXPECT_TRUE(flits[4]->stitchable());  // payload-only tail

    auto req = makePacket(PacketType::ReadReq, 0, 1, 0x40);
    auto req_flit = segmentPacket(req, 16).front();
    EXPECT_TRUE(req_flit->stitchable()); // whole single-flit packet
}

TEST(Flit, StitchWireBytesAddMetadataOnlyForPartials)
{
    auto rsp = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    auto tail = segmentPacket(rsp, 16).back();
    EXPECT_EQ(tail->stitchWireBytes(),
              tail->occupiedBytes + kPartialStitchMetaBytes);

    auto req = makePacket(PacketType::ReadReq, 0, 1, 0x40);
    auto whole = segmentPacket(req, 16).front();
    EXPECT_EQ(whole->stitchWireBytes(), whole->occupiedBytes);
}

TEST(Flit, UsedBytesIncludesStitchedPieces)
{
    auto rsp = makePacket(PacketType::ReadRsp, 0, 1, 0x40);
    auto tail = segmentPacket(rsp, 16).back();
    ASSERT_EQ(tail->usedBytes(), 4u);

    StitchedPiece piece;
    piece.pkt = makePacket(PacketType::WriteRsp, 0, 1, 0x40);
    piece.bytes = 4;
    piece.wholePacket = true;
    tail->stitched.push_back(piece);
    EXPECT_EQ(tail->usedBytes(), 8u);
    EXPECT_EQ(tail->freeBytes(), 8u);
    EXPECT_TRUE(tail->isStitched());

    StitchedPiece partial;
    partial.pkt = makePacket(PacketType::ReadRsp, 0, 1, 0x80);
    partial.bytes = 4;
    partial.wholePacket = false;
    tail->stitched.push_back(partial);
    EXPECT_EQ(tail->usedBytes(), 8u + 4u + kPartialStitchMetaBytes);
}

TEST(Flit, FlitsForBytesEdgeCases)
{
    EXPECT_EQ(flitsForBytes(0, 16), 1u);
    EXPECT_EQ(flitsForBytes(1, 16), 1u);
    EXPECT_EQ(flitsForBytes(16, 16), 1u);
    EXPECT_EQ(flitsForBytes(17, 16), 2u);
    EXPECT_EQ(flitsForBytes(80, 16), 5u);
    EXPECT_EQ(flitsForBytes(12, 8), 2u);
}

/** Property sweep: segmentation invariants over types x flit sizes. */
class SegmentationSweep
    : public ::testing::TestWithParam<std::tuple<PacketType, int>>
{
};

TEST_P(SegmentationSweep, Invariants)
{
    const PacketType type = std::get<0>(GetParam());
    const std::uint32_t flit_bytes =
        static_cast<std::uint32_t>(std::get<1>(GetParam()));
    auto pkt = makePacket(type, 2, 3, 0x1234000);
    auto flits = segmentPacket(pkt, flit_bytes);

    ASSERT_FALSE(flits.empty());
    EXPECT_EQ(flits.size(),
              flitsForBytes(pkt->totalBytes(), flit_bytes));

    std::uint32_t sum = 0;
    for (std::size_t i = 0; i < flits.size(); ++i) {
        const Flit &f = *flits[i];
        EXPECT_EQ(f.seq, i);
        EXPECT_EQ(f.numFlits, flits.size());
        EXPECT_EQ(f.capacity, flit_bytes);
        EXPECT_LE(f.occupiedBytes, flit_bytes);
        EXPECT_GT(f.occupiedBytes, 0u);
        EXPECT_EQ(f.pkt.get(), pkt.get());
        sum += f.occupiedBytes;
        // Only the tail may be partially filled.
        if (i + 1 < flits.size()) {
            EXPECT_EQ(f.occupiedBytes, flit_bytes);
        }
    }
    EXPECT_EQ(sum, pkt->totalBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllTypesAndSizes, SegmentationSweep,
    ::testing::Combine(
        ::testing::Values(PacketType::ReadReq, PacketType::WriteReq,
                          PacketType::PageTableReq, PacketType::ReadRsp,
                          PacketType::WriteRsp,
                          PacketType::PageTableRsp),
        ::testing::Values(8, 16, 32)));

} // namespace
} // namespace netcrafter::noc

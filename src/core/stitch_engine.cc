#include "src/core/stitch_engine.hh"

#include "src/sim/logging.hh"

namespace netcrafter::core {

void
StitchEngine::stitch(noc::Flit &parent, noc::FlitPtr candidate)
{
    NC_ASSERT(fits(parent, *candidate), "stitch() without fits() check");
    noc::StitchedPiece piece;
    piece.pkt = candidate->pkt;
    piece.bytes = candidate->occupiedBytes;
    piece.seq = candidate->seq;
    piece.numFlits = candidate->numFlits;
    piece.wholePacket = candidate->numFlits == 1;
    if (parent.stitched.empty())
        ++stats_.parentsStitched;
    ++stats_.candidatesAbsorbed;
    stats_.candidateBytes += piece.bytes;
    if (!piece.wholePacket)
        stats_.metadataBytes += noc::kPartialStitchMetaBytes;
    parent.stitched.push_back(std::move(piece));
}

void
StitchEngine::unstitch(noc::FlitPtr flit, std::vector<noc::FlitPtr> &out)
{
    if (!flit->isStitched()) {
        out.push_back(std::move(flit));
        return;
    }
    ++stats_.unstitched;
    noc::Flit &parent = *flit;
    out.push_back(std::move(flit));
    for (noc::StitchedPiece &piece : parent.stitched) {
        auto restored = noc::makeFlit();
        restored->pkt = std::move(piece.pkt);
        restored->seq = piece.seq;
        restored->numFlits = piece.numFlits;
        restored->occupiedBytes = piece.bytes;
        restored->capacity = parent.capacity;
        out.push_back(std::move(restored));
    }
    parent.stitched.clear();
}

} // namespace netcrafter::core

/**
 * @file
 * The Stitching Engine (Section 4.2 / 4.4): combines partly-filled flits
 * headed for the same destination cluster into a single wire flit, and
 * performs the inverse un-stitching at the receiving end.
 *
 * Two candidate shapes exist:
 *  - a *whole-packet* candidate (a single-flit packet, header+payload)
 *    stitches at zero overhead;
 *  - a *partial* candidate (a payload-only continuation flit) needs a
 *    2B identification tag and a 1B Size field prepended so the receiver
 *    can reunite it with the rest of its packet.
 */

#ifndef NETCRAFTER_CORE_STITCH_ENGINE_HH
#define NETCRAFTER_CORE_STITCH_ENGINE_HH

#include <cstdint>
#include <vector>

#include "src/noc/flit.hh"

namespace netcrafter::core {

/** Statistics kept by a stitching engine instance. */
struct StitchStats
{
    /** Parent flits that absorbed at least one candidate. */
    std::uint64_t parentsStitched = 0;

    /** Candidate flits absorbed (wire flits saved). */
    std::uint64_t candidatesAbsorbed = 0;

    /** Useful candidate bytes moved into parents. */
    std::uint64_t candidateBytes = 0;

    /** Metadata overhead bytes added for partial candidates. */
    std::uint64_t metadataBytes = 0;

    /** Stitched wire flits taken apart at the receive side. */
    std::uint64_t unstitched = 0;
};

/** Performs stitching at the egress and un-stitching at the ingress. */
class StitchEngine
{
  public:
    /**
     * Whether @p candidate fits into @p parent's free bytes. Destination
     * compatibility (same cluster) is the Cluster Queue's responsibility;
     * this checks shape and size only.
     */
    static bool
    fits(const noc::Flit &parent, const noc::Flit &candidate)
    {
        return candidate.stitchable() &&
               candidate.stitchWireBytes() <= parent.freeBytes();
    }

    /**
     * Absorb @p candidate into @p parent. The candidate flit object is
     * consumed; its content travels as a StitchedPiece. Requires
     * fits(parent, *candidate).
     */
    void stitch(noc::Flit &parent, noc::FlitPtr candidate);

    /**
     * Take a stitched wire flit apart: appends the parent flit (stripped
     * of pieces) followed by one reconstructed flit per piece to @p out.
     * Non-stitched flits pass through unchanged as a single element. The
     * parent keeps its piece storage for reuse.
     */
    void unstitch(noc::FlitPtr flit, std::vector<noc::FlitPtr> &out);

    const StitchStats &stats() const { return stats_; }

  private:
    StitchStats stats_;
};

} // namespace netcrafter::core

#endif // NETCRAFTER_CORE_STITCH_ENGINE_HH

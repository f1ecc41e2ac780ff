/**
 * @file
 * Flits: the fixed-size flow-control units packets are segmented into
 * (Section 4.1, Figure 11). A flit may additionally carry *stitched*
 * pieces of other packets in its otherwise-padded bytes (Section 4.2).
 */

#ifndef NETCRAFTER_NOC_FLIT_HH
#define NETCRAFTER_NOC_FLIT_HH

#include <cstdint>
#include <vector>

#include "src/noc/packet.hh"
#include "src/sim/logging.hh"
#include "src/sim/pool.hh"
#include "src/sim/types.hh"

namespace netcrafter::noc {

/** Default flit size used throughout the paper's evaluation. */
inline constexpr std::uint32_t kDefaultFlitBytes = 16;

/**
 * Wire overhead added when stitching a *partial* (payload-only) candidate:
 * a 2-byte identification tag plus a 1-byte Size field (Section 4.2).
 * Whole-packet candidates stitch for free since they carry their header.
 */
inline constexpr std::uint32_t kPartialStitchMetaBytes = 3;

struct Flit;

/** Shared handle to a pooled flit (see sim/pool.hh and PacketPtr). */
using FlitPtr = sim::PooledPtr<Flit>;

/**
 * A candidate flit absorbed into a parent flit by the Stitching Engine.
 * The piece remembers everything needed to reconstruct the original flit
 * at the un-stitching end.
 */
struct StitchedPiece
{
    /** The packet the stitched flit belonged to. */
    PacketPtr pkt;

    /** Useful packet bytes the stitched flit carried. */
    std::uint16_t bytes = 0;

    /** Sequence number of the stitched flit within its packet. */
    std::uint32_t seq = 0;

    /** Total flits of the stitched flit's packet. */
    std::uint32_t numFlits = 1;

    /**
     * True when the candidate contained the complete packet (header and
     * payload); such pieces need no extra metadata on the wire.
     */
    bool wholePacket = false;

    /** Wire bytes consumed: payload plus ID+Size metadata if partial. */
    std::uint16_t
    wireBytes() const
    {
        return bytes + (wholePacket ? 0 : kPartialStitchMetaBytes);
    }
};

/**
 * One flow-control unit. `occupiedBytes` are the useful bytes of the
 * parent packet; `capacity - usedBytes()` are padded (wasted) unless the
 * Stitching Engine fills them with pieces of other packets.
 */
struct Flit : sim::PoolRefCount
{
    /**
     * Room for the pieces a 16-byte flit can carry (each piece takes at
     * least 4 wire bytes), reserved once per pooled node so stitching
     * never allocates in steady state.
     */
    static constexpr std::size_t kReservedPieces = 3;

    Flit() { stitched.reserve(kReservedPieces); }

    /** Parent packet. */
    PacketPtr pkt;

    /** Index of this flit within the parent packet (0-based). */
    std::uint32_t seq = 0;

    /** Total number of flits the parent packet was segmented into. */
    std::uint32_t numFlits = 1;

    /** Useful bytes of the parent packet carried by this flit. */
    std::uint16_t occupiedBytes = 0;

    /** Flit size in bytes (16 by default; 8 in the Fig. 21 study). */
    std::uint16_t capacity = kDefaultFlitBytes;

    /** Pieces of other packets stitched into this flit's free space. */
    std::vector<StitchedPiece> stitched;

    /**
     * Set once Flit Pooling has deferred this flit; after the pooling
     * window expires the flit is ejected even without a candidate
     * (Section 4.2, Optimization I).
     */
    bool pooledOnce = false;

    /** True if this is the first flit of the packet (carries header). */
    bool isHead() const { return seq == 0; }

    /** True if this is the last flit of the packet. */
    bool isTail() const { return seq + 1 == numFlits; }

    /** True when the repurposed type-field encoding marks stitching. */
    bool isStitched() const { return !stitched.empty(); }

    /** Wire bytes in use: own payload plus stitched pieces w/ metadata. */
    std::uint16_t
    usedBytes() const
    {
        std::uint16_t used = occupiedBytes;
        for (const auto &piece : stitched)
            used += piece.wireBytes();
        return used;
    }

    /** Free (padded) bytes available for stitching. */
    std::uint16_t
    freeBytes() const
    {
        std::uint16_t used = usedBytes();
        return used >= capacity ? 0 : capacity - used;
    }

    /**
     * True when this flit can be absorbed as a stitching candidate:
     * either it contains its entire (single-flit) packet, or it is a
     * payload-only continuation flit. Head flits of multi-flit packets
     * are always full in our packet format, so they never qualify by
     * size anyway; excluding them keeps un-stitching simple.
     */
    bool
    stitchable() const
    {
        if (isStitched())
            return false;
        return numFlits == 1 || !isHead();
    }

    /** Wire bytes a stitching of this flit would consume in a parent. */
    std::uint16_t
    stitchWireBytes() const
    {
        return occupiedBytes +
               (numFlits == 1 ? 0 : kPartialStitchMetaBytes);
    }

    /**
     * Pool hook: restore the default-constructed state. clear() rather
     * than reassignment keeps the stitched vector's capacity, so a
     * recycled flit stitches without reallocating.
     */
    void
    resetForReuse()
    {
        pkt = nullptr;
        seq = 0;
        numFlits = 1;
        occupiedBytes = 0;
        capacity = kDefaultFlitBytes;
        stitched.clear();
        pooledOnce = false;
    }
};

/** Acquire a default-initialised flit from this thread's pool. */
FlitPtr makeFlit();

/** Acquire a flit initialised as a copy of @p other's payload. */
FlitPtr makeFlit(const Flit &other);

/** Number of flits @p total_bytes occupy at @p flit_bytes granularity. */
constexpr std::uint32_t
flitsForBytes(std::uint32_t total_bytes, std::uint32_t flit_bytes)
{
    return total_bytes == 0
               ? 1
               : static_cast<std::uint32_t>(
                     divCeil(total_bytes, flit_bytes));
}

/**
 * Segment @p pkt into flits of @p flit_bytes each, handing them to
 * @p sink (a callable taking FlitPtr) in order. The head flit carries
 * the header and the first payload bytes; the tail flit may be partly
 * empty (padded) when totalBytes() is not a multiple of the flit size.
 */
template <typename Sink>
void
segmentPacket(const PacketPtr &pkt, std::uint32_t flit_bytes, Sink &&sink)
{
    NC_ASSERT(flit_bytes > 0, "flit size must be positive");
    const std::uint32_t total = pkt->totalBytes();
    const std::uint32_t n = flitsForBytes(total, flit_bytes);
    std::uint32_t remaining = total;
    for (std::uint32_t i = 0; i < n; ++i) {
        FlitPtr flit = makeFlit();
        flit->pkt = pkt;
        flit->seq = i;
        flit->numFlits = n;
        flit->capacity = static_cast<std::uint16_t>(flit_bytes);
        flit->occupiedBytes = static_cast<std::uint16_t>(
            remaining >= flit_bytes ? flit_bytes : remaining);
        remaining -= flit->occupiedBytes;
        sink(std::move(flit));
    }
    NC_ASSERT(remaining == 0, "segmentation lost bytes");
}

/** segmentPacket() collected into a vector (tests and tools). */
std::vector<FlitPtr> segmentPacket(const PacketPtr &pkt,
                                   std::uint32_t flit_bytes);

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_FLIT_HH

/**
 * @file
 * Per-CU write-through L1 vector cache (Table 2: 64 KB, 20-cycle lookup,
 * 32-entry MSHR) with optional 16/8/4-byte sectoring. The L1 does not
 * decide how much data a fill returns — the GPU system does (full line,
 * trimmed sector, or sector-cache fill); the L1 simply installs whatever
 * sector mask the fill delivered and replays waiters.
 */

#ifndef NETCRAFTER_MEM_L1_CACHE_HH
#define NETCRAFTER_MEM_L1_CACHE_HH

#include <cstdint>
#include <functional>

#include "src/mem/mshr.hh"
#include "src/mem/tag_array.hh"
#include "src/sim/ring_queue.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::mem {

class L1Cache;

/** Configuration for one L1 vector cache. */
struct L1Params
{
    std::uint64_t sizeBytes = 64 * 1024;
    std::uint32_t assoc = 4;
    Tick lookupLatency = 20;
    std::size_t mshrEntries = 32;

    /** Sector size; kCacheLineBytes for an unsectored cache. */
    std::uint32_t sectorBytes = kCacheLineBytes;
};

/**
 * A miss (or write-through) forwarded below the L1, to the local L2 or
 * a remote GPU. A plain value: the completion is a record naming the
 * requesting L1, so whoever holds the request until it is served stores
 * no callable.
 */
struct FillRequest
{
    Addr line = 0;

    /** First byte the wavefront needs, relative to the line. */
    std::uint32_t offset = 0;

    /** Distinct bytes the wavefront needs from the line. */
    std::uint32_t bytes = 0;

    /** Sectors the L1 wants installed (subset may arrive). */
    SectorMask neededSectors = 0;

    bool isWrite = false;

    /** The L1 the fill or write ack returns to. */
    L1Cache *requester = nullptr;

    /**
     * Deliver the completion: @p filled is the sector mask actually
     * delivered (ignored for writes). Must be called exactly once.
     */
    void complete(SectorMask filled) const;
};

/**
 * The L1 vector cache. access() returns false when the MSHR file is
 * exhausted; the CU retries next cycle (modelling issue stall).
 */
class L1Cache : public sim::SimObject
{
  public:
    using Callback = sim::SmallFn;
    using FillFn = std::function<void(FillRequest)>;

    L1Cache(sim::Engine &engine, std::string name, const L1Params &params,
            FillFn below);

    /**
     * Issue a coalesced access to @p line needing the byte span
     * [@p offset, @p offset + @p bytes). Reads call @p done when the
     * data is in the cache; writes complete (for the wavefront) at
     * acceptance and take an empty @p done — the write-through ack only
     * frees the tracking slot. @p done is consumed only when the access
     * is accepted.
     *
     * @return false when no MSHR/write slot is available (retry later).
     */
    bool access(Addr line, std::uint32_t offset, std::uint32_t bytes,
                bool is_write, Callback &&done);

    /**
     * Version of the state access() decides acceptance from: bumped on
     * every tag fill, MSHR allocate/merge/release and write-slot
     * take/return. An access rejected at version v is rejected again
     * for as long as the version stays v, which lets the CU re-poll a
     * full L1 without repeating the lookup (see countRejection()).
     */
    std::uint64_t stateVersion() const { return version_; }

    /**
     * Record a rejection decided without a lookup: the caller saw the
     * same access rejected at the current stateVersion().
     */
    void countRejection() { ++rejections_; }

    /**
     * Install a hook invoked whenever an MSHR or write slot frees (a
     * fill landed or a write-through ack returned). The CU uses it to
     * park its issue port on rejection instead of re-polling every
     * cycle (CuParams::wakeOnL1Unblock).
     */
    void setUnblockHook(Callback fn) { onUnblock_ = std::move(fn); }

    std::uint64_t readAccesses() const { return readAccesses_; }
    std::uint64_t readHits() const { return readHits_; }
    std::uint64_t readMisses() const { return readMisses_; }
    std::uint64_t writeAccesses() const { return writeAccesses_; }
    std::uint64_t rejections() const { return rejections_; }

    /** Misses, write-throughs and replays still in flight (census). */
    std::size_t
    inFlight() const
    {
        return mshr_.size() + outstandingWrites_ + retries_.size();
    }

  private:
    friend struct FillRequest;

    struct Waiter
    {
        SectorMask needed = 0;
        std::uint32_t offset = 0;
        std::uint32_t bytes = 0;
        Callback done;
    };

    /** A merged waiter the fill did not cover, replayed next cycle. */
    struct Retry
    {
        Addr line = 0;
        Waiter waiter;
    };

    void fillArrived(Addr line, SectorMask filled);
    void writeAcked();
    void retryAccess(Addr line, Waiter waiter);
    void replayRetry();

    L1Params params_;
    TagArray tags_;
    FillFn below_;
    Mshr<Waiter> mshr_;
    std::size_t outstandingWrites_ = 0;
    Callback onUnblock_;

    /**
     * Pending replays, in schedule order. Every replay event fires one
     * cycle after it was scheduled, so events and entries pair up FIFO.
     */
    sim::RingQueue<Retry> retries_;
    std::uint64_t version_ = 0;

    std::uint64_t readAccesses_ = 0;
    std::uint64_t readHits_ = 0;
    std::uint64_t readMisses_ = 0;
    std::uint64_t writeAccesses_ = 0;
    std::uint64_t rejections_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_L1_CACHE_HH

#include "src/mem/l1_cache.hh"

namespace netcrafter::mem {

void
FillRequest::complete(SectorMask filled) const
{
    if (isWrite)
        requester->writeAcked();
    else
        requester->fillArrived(line, filled);
}

L1Cache::L1Cache(sim::Engine &engine, std::string name,
                 const L1Params &params, FillFn below)
    : SimObject(engine, std::move(name)), params_(params),
      tags_(params.sizeBytes, params.assoc, kCacheLineBytes,
            params.sectorBytes),
      below_(std::move(below)), mshr_(params.mshrEntries)
{
    NC_ASSERT(below_ != nullptr, "L1 cache needs a fill path");
}

bool
L1Cache::access(Addr line, std::uint32_t offset, std::uint32_t bytes,
                bool is_write, Callback &&done)
{
    NC_ASSERT(line % kCacheLineBytes == 0, "unaligned line address");

    if (is_write) {
        // Write-through, no-allocate: forward below; the slot bounds
        // outstanding writes. The wavefront does not wait for the ack.
        NC_ASSERT(!done, "L1 writes complete at acceptance");
        if (mshr_.size() + outstandingWrites_ >= mshr_.capacity()) {
            ++rejections_;
            return false;
        }
        ++writeAccesses_;
        ++outstandingWrites_;
        ++version_;
        const std::uint32_t way = tags_.find(line);
        if (way != TagArray::kNoWay)
            tags_.touchWay(way); // data updated in place
        below_(FillRequest{line, offset, bytes, 0, true, this});
        return true;
    }

    ++readAccesses_;
    const SectorMask needed = tags_.sectorsForRange(offset, bytes);
    const std::uint32_t way = tags_.find(line);
    if (way != TagArray::kNoWay && (tags_.sectors(way) & needed) == needed) {
        ++readHits_;
        tags_.touchWay(way);
        schedule(params_.lookupLatency, std::move(done));
        return true;
    }

    ++readMisses_;
    if (mshr_.outstanding(line)) {
        mshr_.merge(line, Waiter{needed, offset, bytes, std::move(done)});
        ++version_;
        return true;
    }
    if (mshr_.size() + outstandingWrites_ >= mshr_.capacity()) {
        --readAccesses_; // the access will be replayed by the CU
        --readMisses_;
        ++rejections_;
        return false;
    }
    mshr_.allocate(line, Waiter{needed, offset, bytes, std::move(done)});
    ++version_;

    // The lookup pipeline ran before the miss went below.
    schedule(params_.lookupLatency, [this, line, offset, bytes, needed] {
        below_(FillRequest{line, offset, bytes, needed, false, this});
    });
    return true;
}

void
L1Cache::writeAcked()
{
    NC_ASSERT(outstandingWrites_ > 0, "write ack underflow");
    --outstandingWrites_;
    ++version_;
    if (onUnblock_)
        onUnblock_();
}

void
L1Cache::fillArrived(Addr line, SectorMask filled)
{
    NC_ASSERT(filled != 0, "fill delivered no sectors");
    tags_.fill(line, filled);
    auto waiters = mshr_.release(line);
    ++version_;
    if (onUnblock_)
        onUnblock_();
    Waiter w;
    while (mshr_.next(waiters, w)) {
        if (tags_.covers(line, w.needed)) {
            w.done();
        } else {
            // The fill (e.g. a trimmed sector for the primary miss) does
            // not cover this merged waiter: replay its access.
            retryAccess(line, std::move(w));
        }
    }
}

void
L1Cache::retryAccess(Addr line, Waiter waiter)
{
    // Replay next cycle; if the MSHR is full the retry loops until a
    // slot frees.
    retries_.push_back(Retry{line, std::move(waiter)});
    schedule(1, [this] { replayRetry(); });
}

void
L1Cache::replayRetry()
{
    Retry r = std::move(retries_.front());
    retries_.pop_front();
    if (!access(r.line, r.waiter.offset, r.waiter.bytes, false,
                std::move(r.waiter.done)))
        retryAccess(r.line, std::move(r.waiter));
}

} // namespace netcrafter::mem

/**
 * @file
 * Miss Status Holding Register file: tracks outstanding misses per block
 * address and merges secondary misses onto the primary one.
 */

#ifndef NETCRAFTER_MEM_MSHR_HH
#define NETCRAFTER_MEM_MSHR_HH

#include <cstdint>

#include "src/sim/logging.hh"
#include "src/sim/types.hh"
#include "src/sim/waiter_table.hh"

namespace netcrafter::mem {

/**
 * MSHR file keyed by block address. @tparam Payload is whatever the
 * cache needs to resume a waiting access when the fill arrives; waiters
 * resume in arrival order.
 */
template <typename Payload>
class Mshr
{
  public:
    /** The waiters of a released entry; drain with next(). */
    using Chain = typename sim::WaiterTable<Addr, Payload>::Chain;

    explicit Mshr(std::size_t entries) : entries_(entries) {}

    /** True when no new primary miss can be tracked. */
    bool full() const { return waiters_.size() >= entries_; }

    /** True when a miss for @p addr is already outstanding. */
    bool outstanding(Addr addr) const { return waiters_.contains(addr); }

    /**
     * Register a primary miss for @p addr. Requires !outstanding(addr)
     * and !full().
     */
    void
    allocate(Addr addr, Payload payload)
    {
        NC_ASSERT(!outstanding(addr), "duplicate MSHR allocation");
        NC_ASSERT(!full(), "MSHR overflow");
        waiters_.add(addr, std::move(payload));
        ++allocations_;
    }

    /** Merge a secondary miss onto an outstanding entry. */
    void
    merge(Addr addr, Payload payload)
    {
        NC_ASSERT(outstanding(addr), "merge without outstanding entry");
        waiters_.add(addr, std::move(payload));
        ++merges_;
    }

    /**
     * Retire the entry for @p addr. Its waiters must then be drained,
     * in arrival order, with next().
     */
    Chain
    release(Addr addr)
    {
        NC_ASSERT(outstanding(addr), "release without outstanding entry");
        return waiters_.take(addr);
    }

    /** Move the next waiter of @p chain into @p out; false when done. */
    bool next(Chain &chain, Payload &out) { return waiters_.pop(chain, out); }

    std::size_t size() const { return waiters_.size(); }
    std::size_t capacity() const { return entries_; }
    std::uint64_t allocations() const { return allocations_; }
    std::uint64_t merges() const { return merges_; }

  private:
    std::size_t entries_;
    sim::WaiterTable<Addr, Payload> waiters_;
    std::uint64_t allocations_ = 0;
    std::uint64_t merges_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_MSHR_HH

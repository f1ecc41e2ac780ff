/**
 * @file
 * Bounded FIFO of flits with push/pop notification hooks, used for the
 * switch I/O buffers and endpoint injection queues. The hooks let idle
 * consumers (links, switch schedulers) wake up without per-cycle polling.
 */

#ifndef NETCRAFTER_NOC_FLIT_BUFFER_HH
#define NETCRAFTER_NOC_FLIT_BUFFER_HH

#include <cstdint>
#include <functional>

#include "src/noc/flit.hh"
#include "src/sim/logging.hh"
#include "src/sim/ring_queue.hh"

namespace netcrafter::noc {

/** A bounded flit FIFO. */
class FlitBuffer
{
  public:
    explicit FlitBuffer(std::size_t capacity) : capacity_(capacity) {}

    bool empty() const { return q_.empty(); }
    bool full() const { return q_.size() >= capacity_; }
    std::size_t size() const { return q_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Push @p flit; returns false (and drops nothing) when full. */
    bool
    tryPush(FlitPtr flit)
    {
        if (full())
            return false;
        q_.push_back(std::move(flit));
        ++pushes_;
        if (q_.size() > maxOccupancy_)
            maxOccupancy_ = q_.size();
        if (onPush_)
            onPush_();
        return true;
    }

    /** Front flit; requires !empty(). */
    const FlitPtr &
    front() const
    {
        NC_ASSERT(!q_.empty(), "front() on empty flit buffer");
        return q_.front();
    }

    /** Pop and return the front flit; requires !empty(). */
    FlitPtr
    pop()
    {
        NC_ASSERT(!q_.empty(), "pop() on empty flit buffer");
        FlitPtr flit = std::move(q_.front());
        q_.pop_front();
        if (onPop_)
            onPop_();
        return flit;
    }

    /** Hook invoked after every successful push. */
    void setOnPush(std::function<void()> fn) { onPush_ = std::move(fn); }

    /** Hook invoked after every pop (space freed). */
    void setOnPop(std::function<void()> fn) { onPop_ = std::move(fn); }

    /** Lifetime total of pushed flits. */
    std::uint64_t pushes() const { return pushes_; }

    /** High-water mark of occupancy. */
    std::size_t maxOccupancy() const { return maxOccupancy_; }

  private:
    std::size_t capacity_;
    sim::RingQueue<FlitPtr> q_;
    std::function<void()> onPush_;
    std::function<void()> onPop_;
    std::uint64_t pushes_ = 0;
    std::size_t maxOccupancy_ = 0;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_FLIT_BUFFER_HH

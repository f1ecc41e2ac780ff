/**
 * @file
 * RingQueue: the growable circular FIFO behind the simulator's flit
 * buffers, switch pipelines, send queues and dispatch queues.
 *
 * A std::deque cycling in steady state frees and reallocates one block
 * every few hundred bytes of traffic; the ring only allocates when it
 * grows past its high-water mark (doubling a power-of-two array), so a
 * queue that cycles forever never touches the heap again.
 */

#ifndef NETCRAFTER_SIM_RING_QUEUE_HH
#define NETCRAFTER_SIM_RING_QUEUE_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "src/sim/logging.hh"

namespace netcrafter::sim {

/** FIFO over a power-of-two ring of default-constructible elements. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Element @p i positions behind the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask()]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask()];
    }

    T &
    front()
    {
        NC_ASSERT(size_ > 0, "front() on empty ring queue");
        return buf_[head_];
    }
    const T &
    front() const
    {
        NC_ASSERT(size_ > 0, "front() on empty ring queue");
        return buf_[head_];
    }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask()] = std::move(value);
        ++size_;
    }

    /** Drop the front element (its slot is reset to release resources). */
    void
    pop_front()
    {
        NC_ASSERT(size_ > 0, "pop_front() on empty ring queue");
        buf_[head_] = T();
        head_ = (head_ + 1) & mask();
        --size_;
    }

    /** Remove element @p i, keeping the order of the others. */
    void
    erase(std::size_t i)
    {
        NC_ASSERT(i < size_, "ring queue erase out of range");
        for (std::size_t k = i; k + 1 < size_; ++k)
            (*this)[k] = std::move((*this)[k + 1]);
        (*this)[size_ - 1] = T();
        --size_;
    }

  private:
    std::size_t mask() const { return buf_.size() - 1; }

    void
    grow()
    {
        std::vector<T> bigger(buf_.empty() ? 8 : buf_.size() * 2);
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move((*this)[i]);
        buf_.swap(bigger);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_RING_QUEUE_HH

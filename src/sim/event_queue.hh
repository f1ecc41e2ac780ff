/**
 * @file
 * The discrete-event queue at the heart of the simulator: a bucketed
 * near-future timing wheel backed by a binary heap for far-future
 * events.
 *
 * Almost every event a cycle-level model schedules lands within a few
 * cycles of "now" (links and switches wake at now+1, cache lookups a
 * handful of cycles out, L2 and DRAM about a hundred), so the wheel
 * covers the next kWheelSlots = 256 ticks with O(1) push/pop FIFO
 * buckets and a four-word occupancy bitmap. Only events kWheelSlots or
 * more ticks out overflow into a comparison-ordered heap and migrate
 * into the wheel as its base advances.
 *
 * Ordering contract: events pop in ascending (tick, phase,
 * schedule-sequence) order — same-tick same-phase events fire in exact
 * insertion order, keeping component behaviour deterministic, and
 * wire-phase events (cross-cluster flit deliveries and credit returns,
 * see event.hh) fire before a tick's default-phase events regardless of
 * when they were inserted. The sharded engine relies on that: it
 * re-schedules wire arrivals at quantum barriers, in an order that may
 * differ from the serial engine's insertion order, and phased popping
 * plus the commutativity of same-tick wire events keeps execution
 * bit-identical. Migration preserves the contract: a tick's bucket only
 * becomes reachable for direct scheduling after every farther-scheduled
 * event for that tick has migrated in (in phase+sequence order), so
 * per-phase bucket appends stay sorted.
 *
 * Contract change vs. the old queue: scheduling strictly before the
 * last popped tick is no longer supported (the engine never did this —
 * it asserts `when >= now()`).
 */

#ifndef NETCRAFTER_SIM_EVENT_QUEUE_HH
#define NETCRAFTER_SIM_EVENT_QUEUE_HH

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "src/sim/event.hh"
#include "src/sim/logging.hh"
#include "src/sim/types.hh"

namespace netcrafter::sim {

/**
 * Timing-wheel event queue over intrusive Event objects. Events
 * scheduled for the same tick fire in insertion order (FIFO).
 */
class EventQueue
{
  public:
    /** Wheel horizon in ticks: a power-of-two multiple of 64, so the
     *  occupancy bitmap is whole 64-bit words. It covers the L2 and
     *  DRAM latencies (100 cycles), keeping them out of the heap. */
    static constexpr std::size_t kWheelSlots = 256;

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Link @p ev into the queue to fire at absolute tick @p when. */
    void
    schedule(Event &ev, Tick when)
    {
        NC_ASSERT(!ev.scheduled_, "event scheduled twice");
        NC_ASSERT(when >= base_, "event scheduled before the queue's "
                                 "drain point: when=", when,
                  " base=", base_);
        ev.when_ = when;
        ev.seq_ = nextSeq_++;
        ev.scheduled_ = true;
        ++count_;
        if (when - base_ < kWheelSlots) {
            pushSlot(&ev);
            ++nearScheduled_;
        } else {
            heapPush(&ev);
            ++farScheduled_;
        }
    }

    /** True when no events remain. */
    bool empty() const { return count_ == 0; }

    /** Number of pending events. */
    std::size_t size() const { return count_; }

    /** Tick of the earliest pending event. Requires !empty(). */
    Tick
    nextTick() const
    {
        NC_ASSERT(count_ > 0, "nextTick() on empty event queue");
        if (wheelCount_ > 0)
            return base_ + firstOccupiedOffset();
        return heap_.front()->when_;
    }

    /**
     * Unlink and return the earliest event. Requires !empty(). The
     * returned event is no longer scheduled(); its when() gives the
     * firing tick.
     */
    Event *
    pop()
    {
        NC_ASSERT(count_ > 0, "pop() on empty event queue");
        if (wheelCount_ == 0)
            advanceTo(heap_.front()->when_);
        const Tick tick = base_ + firstOccupiedOffset();
        if (tick != base_)
            advanceTo(tick);

        const std::size_t s = slotOf(tick);
        Slot &slot = slots_[s];
        Event *ev;
        if (slot.wireHead < slot.wire.size())
            ev = slot.wire[slot.wireHead++];
        else
            ev = slot.q[slot.head++];
        if (slot.wireHead == slot.wire.size() &&
            slot.head == slot.q.size()) {
            slot.wire.clear();
            slot.wireHead = 0;
            slot.q.clear();
            slot.head = 0;
            occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        }
        --wheelCount_;
        --count_;
        ev->scheduled_ = false;
        return ev;
    }

    /** Drop all pending events and reset the sequence counter. */
    void
    clear()
    {
        for (auto &slot : slots_) {
            for (std::size_t i = slot.wireHead; i < slot.wire.size();
                 ++i)
                slot.wire[i]->scheduled_ = false;
            slot.wire.clear();
            slot.wireHead = 0;
            for (std::size_t i = slot.head; i < slot.q.size(); ++i)
                slot.q[i]->scheduled_ = false;
            slot.q.clear();
            slot.head = 0;
        }
        for (Event *ev : heap_)
            ev->scheduled_ = false;
        heap_.clear();
        occupied_ = {};
        wheelCount_ = 0;
        count_ = 0;
        nextSeq_ = 0;
        base_ = 0;
    }

    /** Events that went straight into the wheel (near-future). */
    std::uint64_t nearScheduled() const { return nearScheduled_; }

    /** Events that overflowed into the far-future heap. */
    std::uint64_t farScheduled() const { return farScheduled_; }

  private:
    static constexpr std::size_t kBitmapWords = kWheelSlots / 64;

    static_assert(kWheelSlots % 64 == 0 && std::has_single_bit(kBitmapWords),
                  "kWheelSlots must be a power-of-two multiple of 64");

    struct Slot
    {
        /** Wire-phase FIFO bucket, drained before q (see event.hh). */
        std::vector<Event *> wire;
        std::size_t wireHead = 0;
        /** Default-phase FIFO bucket: push_back appends, head fronts. */
        std::vector<Event *> q;
        std::size_t head = 0;
    };

    static std::size_t
    slotOf(Tick when)
    {
        return static_cast<std::size_t>(when) & (kWheelSlots - 1);
    }

    void
    pushSlot(Event *ev)
    {
        const std::size_t s = slotOf(ev->when_);
        if (ev->phase_ == kPhaseWire)
            slots_[s].wire.push_back(ev);
        else
            slots_[s].q.push_back(ev);
        occupied_[s / 64] |= std::uint64_t{1} << (s % 64);
        ++wheelCount_;
    }

    /**
     * Offset from base_ of the earliest occupied slot. Requires
     * wheelCount_ > 0. Scans the bitmap words circularly: base_'s own
     * word masked to the slots at or after base_, then the following
     * words, ending with base_'s word again for the slots that wrapped
     * around (a revolution minus a few ticks ahead).
     */
    std::size_t
    firstOccupiedOffset() const
    {
        const std::size_t b = slotOf(base_);
        std::size_t w = b / 64;
        std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (b % 64));
        for (std::size_t i = 1; bits == 0 && i <= kBitmapWords; ++i) {
            w = (b / 64 + i) % kBitmapWords;
            bits = occupied_[w];
        }
        const std::size_t s =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        return (s - b) & (kWheelSlots - 1);
    }

    /**
     * Advance the wheel base to @p tick (the next tick to drain) and
     * migrate far-future events that entered the extended horizon.
     * Newly covered ticks had empty buckets, and the heap pops in
     * (tick, seq) order, so per-bucket FIFO order stays exact.
     */
    void
    advanceTo(Tick tick)
    {
        base_ = tick;
        while (!heap_.empty() && heap_.front()->when_ - base_ < kWheelSlots) {
            pushSlot(heapPop());
        }
    }

    static bool
    before(const Event *a, const Event *b)
    {
        if (a->when_ != b->when_)
            return a->when_ < b->when_;
        if (a->phase_ != b->phase_)
            return a->phase_ < b->phase_;
        return a->seq_ < b->seq_;
    }

    void
    heapPush(Event *ev)
    {
        heap_.push_back(ev);
        std::size_t i = heap_.size() - 1;
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!before(heap_[i], heap_[parent]))
                break;
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    Event *
    heapPop()
    {
        Event *top = heap_.front();
        heap_.front() = heap_.back();
        heap_.pop_back();
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        for (;;) {
            std::size_t l = 2 * i + 1;
            std::size_t r = 2 * i + 2;
            std::size_t best = i;
            if (l < n && before(heap_[l], heap_[best]))
                best = l;
            if (r < n && before(heap_[r], heap_[best]))
                best = r;
            if (best == i)
                break;
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
        return top;
    }

    Slot slots_[kWheelSlots];
    std::array<std::uint64_t, kBitmapWords> occupied_{};
    Tick base_ = 0;
    std::size_t wheelCount_ = 0;

    std::vector<Event *> heap_;
    std::uint64_t nextSeq_ = 0;
    std::size_t count_ = 0;

    std::uint64_t nearScheduled_ = 0;
    std::uint64_t farScheduled_ = 0;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_EVENT_QUEUE_HH

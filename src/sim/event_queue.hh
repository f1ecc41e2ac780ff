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
 * buckets and a four-word occupancy bitmap. Each bucket is an
 * intrusive {head, tail} list threaded through Event::next_, so
 * scheduling writes three pointers and touches no container. Only
 * events kWheelSlots or more ticks out overflow into a
 * comparison-ordered heap and migrate into the wheel as its base
 * advances.
 *
 * The dispatch loop pops through popUntil(limit), one call per event:
 * while the drain point's own slot still holds events it returns the
 * next of them without scanning the bitmap, and otherwise it scans the
 * bitmap once to find the next occupied tick.
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
     * Unlink and return the earliest event if it fires at or before
     * @p limit. Otherwise return nullptr and leave the queue as it was:
     * the drain point stays at the last popped tick, so events may
     * still be scheduled anywhere from there on. The returned event is
     * no longer scheduled(); its when() gives the firing tick.
     */
    Event *
    popUntil(Tick limit)
    {
        std::size_t s = slotOf(base_);
        if (slots_[s].empty()) {
            if (count_ == 0)
                return nullptr;
            const Tick tick = wheelCount_ > 0
                                  ? base_ + firstOccupiedOffset()
                                  : heap_.front()->when_;
            if (tick > limit)
                return nullptr;
            advanceTo(tick);
            s = slotOf(tick);
        } else if (base_ > limit) {
            return nullptr;
        }

        Slot &slot = slots_[s];
        Event *ev = slot.wire.head != nullptr ? slot.wire.pop()
                                              : slot.q.pop();
        if (slot.empty())
            occupied_[s / 64] &= ~(std::uint64_t{1} << (s % 64));
        --wheelCount_;
        --count_;
        ev->scheduled_ = false;
        return ev;
    }

    /** popUntil(kTickNever) on a queue that must not be empty. */
    Event *
    pop()
    {
        Event *ev = popUntil(kTickNever);
        NC_ASSERT(ev != nullptr, "pop() on empty event queue");
        return ev;
    }

    /** Drop all pending events and reset the sequence counter. */
    void
    clear()
    {
        for (Slot &slot : slots_) {
            slot.wire.clear();
            slot.q.clear();
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

    /** FIFO of events threaded through Event::next_. */
    struct Bucket
    {
        Event *head = nullptr;
        /** Last event; meaningful only while head is non-null. */
        Event *tail = nullptr;

        void
        push(Event *ev)
        {
            ev->next_ = nullptr;
            (head == nullptr ? head : tail->next_) = ev;
            tail = ev;
        }

        /** Requires head != nullptr. */
        Event *
        pop()
        {
            Event *ev = head;
            head = ev->next_;
            return ev;
        }

        /** Unschedule and drop every event. */
        void
        clear()
        {
            for (Event *ev = head; ev != nullptr; ev = ev->next_)
                ev->scheduled_ = false;
            head = nullptr;
        }
    };

    struct Slot
    {
        /** Wire-phase bucket, drained before q (see event.hh). */
        Bucket wire;
        /** Default-phase bucket. */
        Bucket q;

        bool
        empty() const
        {
            return wire.head == nullptr && q.head == nullptr;
        }
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
        (ev->phase_ == kPhaseWire ? slots_[s].wire : slots_[s].q).push(ev);
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

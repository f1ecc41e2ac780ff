/**
 * @file
 * The simulation engine: owns the event queue and the notion of "now".
 * runWindow() dispatches with one EventQueue::popUntil() call per
 * event, and one-shot callbacks live in a slab pool whose free list is
 * an intrusive LIFO threaded through Event::next_.
 */

#ifndef NETCRAFTER_SIM_ENGINE_HH
#define NETCRAFTER_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/event.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/logging.hh"
#include "src/sim/small_fn.hh"
#include "src/sim/types.hh"

namespace netcrafter::obs {
class TraceBuffer;
class TraceSink;
struct ShardCell;
} // namespace netcrafter::obs

namespace netcrafter::sim {

/** How a call to Engine::run() ended. */
enum class RunStatus : std::uint8_t
{
    /** The event queue drained completely. */
    Drained,
    /** The cycle limit was reached; now() reports the limit. */
    LimitHit,
    /** stop() was requested by an event. */
    Stopped,
};

/**
 * Single-threaded discrete-event simulation engine. Components schedule
 * callbacks at future ticks; run() drains the queue in time order.
 *
 * All times are in core clock cycles at 1 GHz (Table 2), so 1 cycle = 1 ns.
 *
 * Two scheduling flavours exist:
 *  - intrusive: components statically own an Event (e.g. a MemberEvent)
 *    and pass it to schedule(Event&, delay) — never allocates;
 *  - one-shot: schedule(delay, fn) wraps the callable in a pooled event
 *    node recycled after it fires — steady state never allocates either
 *    (the node pool reaches a high-water mark and stays there, and
 *    SmallFn stores captures up to 64 bytes inline).
 */
class Engine
{
  public:
    Engine() = default;

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Current simulated time in cycles. */
    Tick now() const { return now_; }

    /**
     * The engine currently dispatching events on the calling thread, or
     * nullptr outside run()/runWindow(). Shard-owned state that used to
     * be keyed by thread identity (the per-source packet-id counters)
     * keys off this instead: under whole-window work stealing the same
     * shard's windows execute on different host threads across rounds,
     * but always under exactly one engine.
     */
    static Engine *current() { return current_; }

    /**
     * Bump-and-return the engine-owned sequence counter for @p slot
     * (grown on demand). The noc packet-id allocator uses one slot per
     * source GPU, making id sequences a function of the engine's event
     * order alone — identical for every shard count, thread count, and
     * steal schedule.
     */
    std::uint64_t
    bumpScopedId(std::size_t slot)
    {
        if (slot >= scopedIds_.size())
            scopedIds_.resize(slot + 1, 0);
        return ++scopedIds_[slot];
    }

    /** Schedule @p fn to fire @p delay cycles from now. */
    void
    schedule(Tick delay, EventFn fn)
    {
        CallbackEvent *ev = acquireCallback();
        ev->fn = std::move(fn);
        queue_.schedule(*ev, now_ + delay);
    }

    /** Schedule @p fn at an absolute tick (must not be in the past). */
    void scheduleAbs(Tick when, EventFn fn);

    /**
     * Schedule @p fn as a wire-phase event at an absolute tick, strictly
     * in the future. Wire-phase events fire before a tick's default
     * events (see event.hh); the inter-cluster channels use this for
     * flit deliveries and credit returns so that serial and sharded
     * execution order them identically.
     */
    void scheduleWireAbs(Tick when, EventFn fn);

    /** Schedule intrusive event @p ev @p delay cycles from now. */
    void
    schedule(Event &ev, Tick delay)
    {
        queue_.schedule(ev, now_ + delay);
    }

    /** Schedule intrusive event @p ev at an absolute tick. */
    void scheduleAbs(Event &ev, Tick when);

    /**
     * Run until the event queue drains, @p limit cycles elapse, or an
     * event calls stop(). When the limit is hit, now() advances to the
     * limit so aborted runs report the cap consistently.
     */
    RunStatus run(Tick limit = kTickNever);

    /**
     * Like run(), but never advances now() past the last executed
     * event: hitting the limit leaves now() at the last event's tick.
     * The sharded engine drains quantum windows with this so that a
     * shard's clock reflects real progress, not the window cap.
     */
    RunStatus runWindow(Tick limit);

    /** Tick of the earliest pending event, or kTickNever when empty. */
    Tick
    nextEventTick() const
    {
        return queue_.empty() ? kTickNever : queue_.nextTick();
    }

    /**
     * Move now() forward to @p when without executing anything. Only
     * meaningful between runs on a drained queue — the sharded engine
     * aligns all shard clocks to the global maximum after a drain so
     * that utilization denominators and the next kernel's dispatch base
     * match the serial engine.
     */
    void
    advanceNow(Tick when)
    {
        NC_ASSERT(when >= now_, "advanceNow() backwards: when=", when,
                  " now=", now_);
        now_ = when;
    }

    /** Request that run() return after the current event completes. */
    void stop() { stopRequested_ = true; }

    /** How the most recent run() ended. */
    RunStatus lastRunStatus() const { return lastRunStatus_; }

    /** Total events executed since construction. */
    std::uint64_t eventsExecuted() const { return eventsExecuted_; }

    /** Pending event count (for tests and diagnostics). */
    std::size_t pendingEvents() const { return queue_.size(); }

    /** The underlying queue (wheel/heap statistics). */
    const EventQueue &queue() const { return queue_; }

    /** One-shot event nodes ever allocated (pool arena size). */
    std::size_t callbackPoolAllocated() const { return poolAllocated_; }

    /** One-shot event nodes currently free for reuse. */
    std::size_t callbackPoolFree() const { return freeCount_; }

    /** Peak simultaneously pending one-shot events. */
    std::size_t callbackPoolHighWater() const { return poolHighWater_; }

    /** Approximate bytes held by the one-shot event node arena. */
    std::size_t
    callbackArenaBytes() const
    {
        return poolAllocated_ * sizeof(CallbackEvent);
    }

    /** Record that a SimObject named @p name bound to this engine. */
    void attachObject(const std::string &name)
    {
        attachedNames_.push_back(name);
    }

    /**
     * Names of every SimObject constructed against this engine, in
     * construction order. Diagnostic: lets tests assert that a sharded
     * system's partition covers each component exactly once.
     */
    const std::vector<std::string> &attachedObjectNames() const
    {
        return attachedNames_;
    }

    /**
     * This engine's (shard-local) trace buffer, or nullptr when tracing
     * is disabled. obs::tracepoint() null-checks this on every call —
     * that null-check *is* the disabled-path cost.
     */
    obs::TraceBuffer *trace() const { return trace_; }

    /** The shared trace sink (lane interning), or nullptr. */
    obs::TraceSink *traceSink() const { return traceSink_; }

    /** Attach trace state; the caller keeps ownership of both. */
    void
    setTrace(obs::TraceSink *sink, obs::TraceBuffer *buffer)
    {
        traceSink_ = sink;
        trace_ = buffer;
    }

    /**
     * This engine's live-progress cell on the owning ShardedEngine's
     * ProgressBoard, or nullptr. runWindow() republishes tick/events/
     * backlog into it every 4096 events so a background sampler sees
     * liveness even inside one long window (or a serial drain); the
     * serve/flow subsystems bump its gauges from event context. Writes
     * are relaxed atomic stores — observation only, never an input.
     */
    obs::ShardCell *progressCell() const { return progress_; }

    /** Attach the progress cell; the caller keeps ownership. */
    void setProgressCell(obs::ShardCell *cell) { progress_ = cell; }

  private:
    /** A pooled one-shot event: fires its callback, then recycles. */
    class CallbackEvent final : public Event
    {
      public:
        void
        process() override
        {
            // Release before invoking: the callback may schedule new
            // one-shot events and should be able to reuse this node.
            EventFn local = std::move(fn);
            owner->releaseCallback(this);
            local();
        }

        // owner comes first: it fills the gap between Event's 40 bytes
        // and fn's 16-byte alignment, so a node stays 128 bytes on
        // x86-64.
        Engine *owner = nullptr;
        EventFn fn;
    };

    /** Pooled nodes per slab; slabs are never freed while running. */
    static constexpr std::size_t kSlabSize = 64;

    /** Mid-window progress publish cadence: every 4096 events. */
    static constexpr std::uint64_t kProgressMask = 0xFFF;

    /** Relaxed-store tick/events/backlog into the progress cell. */
    void publishProgress();

    CallbackEvent *acquireCallback();

    /** Push @p ev onto the free list; the next acquire reuses it. */
    void
    releaseCallback(CallbackEvent *ev)
    {
        ev->next_ = freeHead_;
        freeHead_ = ev;
        ++freeCount_;
    }

    /** The engine dispatching on this thread (see current()). */
    static thread_local Engine *current_;

    EventQueue queue_;
    Tick now_ = 0;
    std::vector<std::uint64_t> scopedIds_;
    bool stopRequested_ = false;
    RunStatus lastRunStatus_ = RunStatus::Drained;
    std::uint64_t eventsExecuted_ = 0;

    std::vector<std::unique_ptr<CallbackEvent[]>> slabs_;
    /** Top of the intrusive LIFO of free nodes (linked via next_). */
    Event *freeHead_ = nullptr;
    std::size_t freeCount_ = 0;
    std::size_t poolAllocated_ = 0;
    std::size_t poolHighWater_ = 0;
    std::vector<std::string> attachedNames_;
    obs::TraceBuffer *trace_ = nullptr;
    obs::TraceSink *traceSink_ = nullptr;
    obs::ShardCell *progress_ = nullptr;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_ENGINE_HH

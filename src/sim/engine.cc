#include "src/sim/engine.hh"

#include <algorithm>

#include "src/obs/progress_board.hh"
#include "src/sim/logging.hh"

namespace netcrafter::sim {

void
Engine::scheduleAbs(Tick when, EventFn fn)
{
    NC_ASSERT(when >= now_, "event scheduled in the past: when=", when,
              " now=", now_);
    CallbackEvent *ev = acquireCallback();
    ev->fn = std::move(fn);
    queue_.schedule(*ev, when);
}

void
Engine::scheduleAbs(Event &ev, Tick when)
{
    NC_ASSERT(when >= now_, "event scheduled in the past: when=", when,
              " now=", now_);
    queue_.schedule(ev, when);
}

void
Engine::scheduleWireAbs(Tick when, EventFn fn)
{
    NC_ASSERT(when > now_, "wire event must be strictly in the future: "
                           "when=", when, " now=", now_);
    CallbackEvent *ev = acquireCallback();
    ev->fn = std::move(fn);
    ev->setPhase(kPhaseWire);
    queue_.schedule(*ev, when);
}

Engine::CallbackEvent *
Engine::acquireCallback()
{
    if (freeHead_ == nullptr) {
        auto slab = std::make_unique<CallbackEvent[]>(kSlabSize);
        for (std::size_t i = 0; i < kSlabSize; ++i) {
            slab[i].owner = this;
            releaseCallback(&slab[i]);
        }
        slabs_.push_back(std::move(slab));
        poolAllocated_ += kSlabSize;
    }
    auto *ev = static_cast<CallbackEvent *>(freeHead_);
    freeHead_ = ev->next_;
    --freeCount_;
    ev->setPhase(kPhaseDefault); // recycled nodes may have been wire
    const std::size_t live = poolAllocated_ - freeCount_;
    poolHighWater_ = std::max(poolHighWater_, live);
    return ev;
}

RunStatus
Engine::run(Tick limit)
{
    const RunStatus status = runWindow(limit);
    if (status == RunStatus::LimitHit) {
        // Advance to the cap so aborted runs report it as "now";
        // pending events all lie strictly beyond the limit.
        now_ = std::max(now_, limit);
    }
    return status;
}

thread_local Engine *Engine::current_ = nullptr;

namespace {

/** Scoped install of Engine::current_ around a dispatch loop. */
class CurrentEngineScope
{
  public:
    explicit CurrentEngineScope(Engine *engine, Engine *&slot)
        : slot_(slot), saved_(slot)
    {
        slot_ = engine;
    }
    ~CurrentEngineScope() { slot_ = saved_; }

    CurrentEngineScope(const CurrentEngineScope &) = delete;
    CurrentEngineScope &operator=(const CurrentEngineScope &) = delete;

  private:
    Engine *&slot_;
    Engine *saved_;
};

} // namespace

RunStatus
Engine::runWindow(Tick limit)
{
    const CurrentEngineScope scope(this, current_);
    stopRequested_ = false;
    while (Event *ev = queue_.popUntil(limit)) {
        NC_ASSERT(ev->when() >= now_, "event queue went backwards");
        now_ = ev->when();
        ++eventsExecuted_;
        if ((eventsExecuted_ & kProgressMask) == 0 && progress_ != nullptr)
            publishProgress();
        ev->process();
        if (stopRequested_)
            return lastRunStatus_ = RunStatus::Stopped;
    }
    return lastRunStatus_ = queue_.empty() ? RunStatus::Drained
                                           : RunStatus::LimitHit;
}

void
Engine::publishProgress()
{
    progress_->tick.store(now_, std::memory_order_relaxed);
    progress_->events.store(eventsExecuted_, std::memory_order_relaxed);
    progress_->backlog.store(queue_.size(), std::memory_order_relaxed);
}

} // namespace netcrafter::sim

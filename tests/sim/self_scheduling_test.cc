/**
 * @file
 * SelfScheduling tests: the intrusive next-cycle wake coalesces
 * notifies, re-arms from its own handler, and — when the handler ran
 * from some other event while its wake was still queued — falls back to
 * a one-shot, so it produces exactly the handler calls and event count
 * of a wake that schedules a pooled one-shot every time.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/random.hh"
#include "src/sim/self_scheduling.hh"

namespace netcrafter::sim {
namespace {

/** Reference wake: every wake is a pooled one-shot callback. */
template <typename T, void (T::*Handler)()>
class OneShotWake
{
  public:
    OneShotWake(Engine &engine, T *obj) : engine_(engine), obj_(obj) {}

    void
    notify()
    {
        if (pending_)
            return;
        pending_ = true;
        engine_.schedule(1, [this] { (obj_->*Handler)(); });
    }

    void clearPending() { pending_ = false; }

  private:
    Engine &engine_;
    T *obj_;
    bool pending_ = false;
};

/** One handler invocation: its tick and whether it passed the guard. */
using Call = std::pair<Tick, bool>;

/**
 * A component shaped like the switch: its handler may also run from
 * events other than its wake, and a per-tick guard turns a second run
 * within one tick into a no-op that leaves the wake flag alone.
 */
template <bool Intrusive>
class Probe
{
  public:
    explicit Probe(Engine &engine) : engine_(engine), wake_(engine, this)
    {}

    void notify() { wake_.notify(); }

    void
    handle()
    {
        const Tick t = engine_.now();
        if (t == lastTick_) {
            calls.emplace_back(t, false);
            return;
        }
        lastTick_ = t;
        wake_.clearPending();
        calls.emplace_back(t, true);
        if (work > 0) {
            --work;
            wake_.notify();
        }
    }

    std::vector<Call> calls;

    /** Further cycles the handler re-arms itself for. */
    unsigned work = 0;

  private:
    using Wake =
        std::conditional_t<Intrusive, SelfScheduling<Probe, &Probe::handle>,
                           OneShotWake<Probe, &Probe::handle>>;

    Engine &engine_;
    Wake wake_;
    Tick lastTick_ = kTickNever;
};

TEST(SelfScheduling, NotifiesInOneTickCostOneEvent)
{
    Engine engine;
    Probe<true> probe(engine);
    for (int i = 0; i < 5; ++i)
        probe.notify();
    EXPECT_EQ(engine.pendingEvents(), 1u);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(probe.calls, (std::vector<Call>{{1, true}}));
    EXPECT_EQ(engine.eventsExecuted(), 1u);
    // The wake is the component's own event: no pooled node was used.
    EXPECT_EQ(engine.callbackPoolAllocated(), 0u);
}

TEST(SelfScheduling, HandlerThatRenotifiesRunsNextTick)
{
    Engine engine;
    Probe<true> probe(engine);
    probe.work = 2;
    probe.notify();
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(probe.calls,
              (std::vector<Call>{{1, true}, {2, true}, {3, true}}));
    EXPECT_EQ(engine.eventsExecuted(), 3u);
    EXPECT_EQ(engine.callbackPoolAllocated(), 0u);
}

/**
 * The switch's long-delay wake-up: a one-shot at tick 5 runs the
 * handler while the wake notified at tick 4 is still queued for tick 5,
 * and the handler re-notifies. Returns the calls and the event count.
 */
template <bool Intrusive>
std::pair<std::vector<Call>, std::uint64_t>
handlerRunsWhileWakeQueued()
{
    Engine engine;
    Probe<Intrusive> probe(engine);
    engine.schedule(5, [&] { probe.handle(); });
    engine.schedule(4, [&] {
        probe.work = 1;
        probe.notify();
    });
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    // Back on the intrusive path once the stale wake has fired.
    probe.notify();
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    return {probe.calls, engine.eventsExecuted()};
}

TEST(SelfScheduling, HandlerRunWhileQueuedFallsBackToOneShot)
{
    const auto got = handlerRunsWhileWakeQueued<true>();
    const auto ref = handlerRunsWhileWakeQueued<false>();
    EXPECT_EQ(got.first, ref.first);
    EXPECT_EQ(got.second, ref.second);
    // Tick 5: the long-delay run re-notifies (the fallback one-shot for
    // tick 6), then the stale wake hits the guard. Tick 7: the final
    // notify.
    EXPECT_EQ(got.first, (std::vector<Call>{
                             {5, true}, {5, false}, {6, true}, {7, true}}));
    EXPECT_EQ(got.second, 5u);
}

/**
 * Two chains of stimulus events at random 0-2 tick gaps notify the
 * probe, run its handler directly, or hand it more work, interleaving
 * with its wakes in every order the queue allows.
 */
template <bool Intrusive>
std::pair<std::vector<Call>, std::uint64_t>
randomDrive(std::uint64_t seed)
{
    Engine engine;
    Probe<Intrusive> probe(engine);
    Pcg32 rng(seed);
    std::function<void()> drive = [&] {
        switch (rng.below(4)) {
        case 0:
            probe.notify();
            break;
        case 1:
            probe.handle();
            break;
        case 2:
            ++probe.work;
            probe.notify();
            break;
        default:
            break;
        }
        if (engine.now() < 2000)
            engine.schedule(rng.below(3), [&] { drive(); });
    };
    engine.schedule(0, [&] { drive(); });
    engine.schedule(1, [&] { drive(); });
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    return {probe.calls, engine.eventsExecuted()};
}

TEST(SelfScheduling, RandomInterleavingsMatchOneShotWakes)
{
    for (std::uint64_t seed : {1ull, 17ull, 2024ull}) {
        const auto got = randomDrive<true>(seed);
        const auto ref = randomDrive<false>(seed);
        ASSERT_EQ(got.first, ref.first) << "seed " << seed;
        EXPECT_EQ(got.second, ref.second) << "seed " << seed;
        // Same-tick collisions of direct runs and wakes did happen.
        EXPECT_GT(std::count_if(got.first.begin(), got.first.end(),
                                [](const Call &c) { return !c.second; }),
                  0)
            << "seed " << seed;
    }
}

} // namespace
} // namespace netcrafter::sim

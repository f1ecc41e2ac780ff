/** @file Unit tests for the discrete-event engine and event queue. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/engine.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::sim {
namespace {

/** Minimal intrusive event running an arbitrary callback. */
class TestEvent : public Event
{
  public:
    explicit TestEvent(std::function<void()> fn = nullptr)
        : fn_(std::move(fn))
    {}

    void
    process() override
    {
        if (fn_)
            fn_();
    }

  private:
    std::function<void()> fn_;
};

TEST(EventQueue, OrdersByTick)
{
    EventQueue q;
    std::vector<int> order;
    TestEvent e3([&] { order.push_back(3); });
    TestEvent e1([&] { order.push_back(1); });
    TestEvent e2([&] { order.push_back(2); });
    q.schedule(e3, 30);
    q.schedule(e1, 10);
    q.schedule(e2, 20);
    while (!q.empty())
        q.pop()->process();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue q;
    std::vector<int> order;
    std::vector<std::unique_ptr<TestEvent>> events;
    for (int i = 0; i < 10; ++i) {
        events.push_back(std::make_unique<TestEvent>(
            [&order, i] { order.push_back(i); }));
        q.schedule(*events.back(), 5);
    }
    while (!q.empty())
        q.pop()->process();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, FarFutureEventsUseTheHeap)
{
    EventQueue q;
    TestEvent near_ev, far_ev;
    q.schedule(near_ev, EventQueue::kWheelSlots - 1);
    q.schedule(far_ev, EventQueue::kWheelSlots + 1000);
    EXPECT_EQ(q.nearScheduled(), 1u);
    EXPECT_EQ(q.farScheduled(), 1u);
    EXPECT_EQ(q.pop(), &near_ev);
    // The far event migrates into the wheel when the base advances.
    EXPECT_EQ(q.nextTick(), EventQueue::kWheelSlots + 1000);
    EXPECT_EQ(q.pop(), &far_ev);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PopReportsWhenAndClearsScheduled)
{
    EventQueue q;
    TestEvent ev;
    q.schedule(ev, 123);
    EXPECT_TRUE(ev.scheduled());
    EXPECT_EQ(ev.when(), 123u);
    Event *popped = q.pop();
    EXPECT_EQ(popped, &ev);
    EXPECT_FALSE(ev.scheduled());
    EXPECT_EQ(popped->when(), 123u);
}

TEST(EventQueue, ClearUnschedulesEverything)
{
    EventQueue q;
    TestEvent near_ev, far_ev;
    q.schedule(near_ev, 3);
    q.schedule(far_ev, 500);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(near_ev.scheduled());
    EXPECT_FALSE(far_ev.scheduled());
    // Both events are reusable after clear().
    q.schedule(near_ev, 1);
    q.schedule(far_ev, 2);
    EXPECT_EQ(q.pop(), &near_ev);
    EXPECT_EQ(q.pop(), &far_ev);
}

TEST(EventQueue, StressRandomOrderMatchesReferenceHeap)
{
    // Random interleaving of schedules and pops, checked against a
    // (tick, phase, seq) reference model. Ticks span many wheel
    // revolutions so wheel<->heap migration is exercised; delays hit
    // every bitmap-word boundary and the wheel horizon; some events are
    // wire-phase; and one stretch parks the drain point just short of a
    // revolution so the occupied slots wrap around the wheel's end.
    // Pops go through popUntil with random limits: it must return
    // nullptr exactly when the reference front lies past the limit.
    using Key = std::tuple<Tick, std::uint8_t, std::uint64_t>;
    constexpr Tick kSlots = EventQueue::kWheelSlots;
    std::vector<Tick> boundary_delays;
    for (Tick w = 64; w <= kSlots; w += 64) {
        boundary_delays.push_back(w - 1);
        boundary_delays.push_back(w);
        boundary_delays.push_back(w + 1);
    }

    EventQueue q;
    Pcg32 rng(42);
    Pcg32 limit_rng(7);
    std::vector<std::unique_ptr<TestEvent>> storage;
    std::map<Key, const Event *> reference;
    std::uint64_t seq = 0;
    Tick drain_point = 0;

    const auto push = [&](Tick when, bool wire) {
        storage.push_back(std::make_unique<TestEvent>());
        if (wire)
            storage.back()->setPhase(kPhaseWire);
        q.schedule(*storage.back(), when);
        reference.emplace(Key{when, storage.back()->phase(), seq++},
                          storage.back().get());
    };
    const auto pop_one = [&]() -> ::testing::AssertionResult {
        const auto [when, phase, want_seq] = reference.begin()->first;
        if (q.empty())
            return ::testing::AssertionFailure() << "queue ran dry";
        if (q.nextTick() != when) {
            return ::testing::AssertionFailure()
                   << "nextTick " << q.nextTick() << ", want " << when;
        }
        const Event *got = nullptr;
        while (got == nullptr) {
            // A quarter of the limits are unbounded; the rest fall
            // between a few ticks before the drain point and a little
            // past the front.
            const Tick lo = drain_point - std::min<Tick>(drain_point, 8);
            const Tick limit =
                limit_rng.below(4) == 0
                    ? kTickNever
                    : lo + limit_rng.below(
                               static_cast<std::uint32_t>(when - lo + 64));
            got = q.popUntil(limit);
            if ((got == nullptr) != (when > limit)) {
                return ::testing::AssertionFailure()
                       << "popUntil(" << limit << ") returned "
                       << (got ? "an event" : "nullptr")
                       << " with the front at tick " << when;
            }
        }
        if (got != reference.begin()->second || got->when() != when) {
            return ::testing::AssertionFailure()
                   << "popped tick " << got->when() << " phase "
                   << int(got->phase()) << ", want tick " << when
                   << " phase " << int(phase) << " seq " << want_seq;
        }
        drain_point = when;
        reference.erase(reference.begin());
        return ::testing::AssertionSuccess();
    };

    for (int round = 0; round < 400; ++round) {
        if (round == 200) {
            // Drain everything, then park the drain point three ticks
            // before a revolution ends.
            while (!reference.empty())
                ASSERT_TRUE(pop_one());
            const Tick park = (drain_point / kSlots + 3) * kSlots - 3;
            push(park, false);
            ASSERT_TRUE(pop_one());
            ASSERT_EQ(drain_point, park);
        }
        const int pushes = 1 + rng.below(50);
        for (int i = 0; i < pushes; ++i) {
            Tick delay;
            switch (rng.below(3)) {
            case 0:
                delay = rng.below(1000);
                break;
            case 1:
                delay = boundary_delays[rng.below(static_cast<std::uint32_t>(
                    boundary_delays.size()))];
                break;
            default:
                delay = rng.below(8);
                break;
            }
            // Wire-phase events are always strictly in the future.
            const bool wire = delay > 0 && rng.below(4) == 0;
            push(drain_point + delay, wire);
        }
        const int pops = rng.below(
            static_cast<std::uint32_t>(reference.size() + 1));
        for (int i = 0; i < pops; ++i)
            ASSERT_TRUE(pop_one());
    }
    while (!reference.empty())
        ASSERT_TRUE(pop_one());
    EXPECT_TRUE(q.empty());
}

TEST(Engine, AdvancesTime)
{
    Engine engine;
    Tick seen = 0;
    engine.schedule(100, [&] { seen = engine.now(); });
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(seen, 100u);
    EXPECT_EQ(engine.now(), 100u);
}

TEST(Engine, EventsCanScheduleEvents)
{
    Engine engine;
    int fired = 0;
    std::function<void()> chain = [&] {
        ++fired;
        if (fired < 5)
            engine.schedule(10, chain);
    };
    engine.schedule(10, chain);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(fired, 5);
    EXPECT_EQ(engine.now(), 50u);
}

TEST(Engine, RunLimitStopsAndAdvancesNow)
{
    Engine engine;
    bool late_fired = false;
    engine.schedule(10, [] {});
    engine.schedule(1000, [&] { late_fired = true; });
    EXPECT_EQ(engine.run(100), RunStatus::LimitHit);
    EXPECT_EQ(engine.lastRunStatus(), RunStatus::LimitHit);
    // A limit-hit run reports the cap as the current time.
    EXPECT_EQ(engine.now(), 100u);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_TRUE(late_fired);
    EXPECT_EQ(engine.now(), 1000u);
}

TEST(Engine, WindowLimitShortOfTheHeapKeepsTheDrainPoint)
{
    // The sharded engine's barrier ingress schedules into a shard whose
    // window ended short of its next event. A window that stops before
    // a far-future (heap) event must leave the drain point at its last
    // event, so an arrival between the two is still accepted and fires
    // in tick order.
    Engine engine;
    std::vector<Tick> fired;
    const auto record = [&] { fired.push_back(engine.now()); };
    engine.scheduleAbs(10, record);
    engine.scheduleAbs(1000, record);
    EXPECT_EQ(engine.queue().farScheduled(), 1u);
    EXPECT_EQ(engine.runWindow(100), RunStatus::LimitHit);
    EXPECT_EQ(engine.now(), 10u);
    engine.scheduleAbs(50, record);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 50, 1000}));
}

TEST(Engine, StopRequestHonored)
{
    Engine engine;
    int fired = 0;
    engine.schedule(1, [&] {
        ++fired;
        engine.stop();
    });
    engine.schedule(2, [&] { ++fired; });
    EXPECT_EQ(engine.run(), RunStatus::Stopped);
    EXPECT_EQ(engine.lastRunStatus(), RunStatus::Stopped);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(engine.run(), RunStatus::Drained);
    EXPECT_EQ(fired, 2);
}

TEST(Engine, CountsEvents)
{
    Engine engine;
    for (int i = 0; i < 7; ++i)
        engine.schedule(i + 1, [] {});
    engine.run();
    EXPECT_EQ(engine.eventsExecuted(), 7u);
}

TEST(Engine, IntrusiveEventsFire)
{
    Engine engine;
    struct Counter
    {
        int fired = 0;
        void tick() { ++fired; }
    } counter;
    MemberEvent<Counter, &Counter::tick> ev(&counter);
    engine.schedule(ev, 5);
    EXPECT_TRUE(ev.scheduled());
    engine.run();
    EXPECT_EQ(counter.fired, 1);
    EXPECT_FALSE(ev.scheduled());
    // Intrusive events are reusable once they have fired.
    engine.schedule(ev, 5);
    engine.run();
    EXPECT_EQ(counter.fired, 2);
}

TEST(Engine, CallbackPoolRecyclesNodes)
{
    Engine engine;
    // Steady-state scheduling: one event in flight at a time. The pool
    // must allocate one slab and then stop growing.
    int fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 10000)
            engine.schedule(1, chain);
    };
    engine.schedule(1, chain);
    engine.run();
    EXPECT_EQ(fired, 10000);
    const std::size_t allocated = engine.callbackPoolAllocated();
    EXPECT_GT(allocated, 0u);
    // A node is released before its callback runs, so the callback's
    // own reschedule finds it free: one node is ever live.
    EXPECT_EQ(engine.callbackPoolHighWater(), 1u);
    // Everything in flight has been returned.
    EXPECT_EQ(engine.callbackPoolFree(), allocated);
    EXPECT_GT(engine.callbackArenaBytes(), 0u);

    // Re-running the same load must not grow the arena: zero-allocation
    // steady state.
    fired = 0;
    engine.schedule(1, chain);
    engine.run();
    EXPECT_EQ(engine.callbackPoolAllocated(), allocated);
}

TEST(Engine, PoolHighWaterTracksBurst)
{
    Engine engine;
    for (int i = 0; i < 200; ++i)
        engine.schedule(1, [] {});
    EXPECT_GE(engine.callbackPoolHighWater(), 200u);
    engine.run();
    EXPECT_EQ(engine.callbackPoolFree(), engine.callbackPoolAllocated());
}

TEST(SmallFn, InlineCapturesDoNotAllocate)
{
    const std::uint64_t before = SmallFn::heapAllocations();
    std::uint64_t a = 1, b = 2, c = 3, d = 4;
    SmallFn fn([a, b, c, d]() mutable { a = b + c + d; });
    fn();
    EXPECT_EQ(SmallFn::heapAllocations(), before);
}

TEST(SmallFn, OversizeCapturesFallBackToHeap)
{
    const std::uint64_t before = SmallFn::heapAllocations();
    std::array<std::uint64_t, 32> big{};
    SmallFn fn([big] { (void)big; });
    fn();
    EXPECT_EQ(SmallFn::heapAllocations(), before + 1);
}

TEST(SmallFn, MoveTransfersOwnership)
{
    int fired = 0;
    SmallFn fn([&fired] { ++fired; });
    SmallFn moved = std::move(fn);
    EXPECT_FALSE(fn);
    EXPECT_TRUE(moved);
    moved();
    EXPECT_EQ(fired, 1);
}

TEST(Pcg32, DeterministicStreams)
{
    Pcg32 a(7), b(7), c(8);
    for (int i = 0; i < 100; ++i) {
        std::uint32_t va = a.next();
        EXPECT_EQ(va, b.next());
    }
    // Different seeds diverge (probabilistically certain).
    bool any_diff = false;
    Pcg32 a2(7);
    for (int i = 0; i < 100; ++i)
        any_diff |= a2.next() != c.next();
    EXPECT_TRUE(any_diff);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(123);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
    EXPECT_EQ(rng.below(1), 0u);
    EXPECT_EQ(rng.below(0), 0u);
}

TEST(Pcg32, UniformInUnitInterval)
{
    Pcg32 rng(5);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

} // namespace
} // namespace netcrafter::sim

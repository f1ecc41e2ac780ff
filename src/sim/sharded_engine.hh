/**
 * @file
 * Conservative parallel discrete-event execution: one Engine per shard,
 * advancing in barrier-synchronized quanta bounded by conservative
 * lookahead (classic conservative PDES, as in Graphite's
 * barrier-synchronized cycle-level mode).
 *
 * The system is partitioned so that every component belongs to exactly
 * one shard and all same-cycle interactions stay inside a shard; the
 * only cross-shard traffic flows through latency-L wire channels
 * (noc::WireChannel). A flit departing at tick T arrives at T+L, so a
 * window is safe as long as nothing sent inside it can arrive inside
 * it.
 *
 * Window rule: shard s cannot execute anything before its earliest
 * runnable tick N_s (its next pending event, or the earliest sealed
 * cross-shard arrival addressed to it), so it cannot put anything on a
 * wire before N_s either; the earliest tick at which shard s can make
 * another shard's state change is N_s + L_s, where L_s is the minimum
 * latency over the channels leaving s (flits it sources, credits it
 * returns). With m the global minimum of N_s, the window
 * [m, min_s(N_s + L_s) - 1] is therefore safe, and it always spans at
 * least min_s(L_s) ticks because N_s >= m. When no shard can emit at
 * all (no registered channels leave it), the bound is infinite and
 * every shard drains in one stride. Both inputs (N_s from the
 * published next-event ticks and sealed mailboxes, L_s from
 * registration-time channel latencies) are pre-barrier state computed
 * once by the round coordinator, so every shard observes the same
 * window: determinism is preserved. A sealed arrival is scheduled at
 * its own wire tick, which the window rule places strictly after the
 * receiver's clock (Engine::scheduleWireAbs asserts it).
 *
 * Execution model (PR 7): shards are deterministic work *partitions*,
 * host threads are *executors*, and the two are decoupled by
 * ExecPolicy. Each round, every active shard's whole window — import
 * its sealed cross-shard mailboxes, then Engine::runWindow to the
 * round's window end — is one indivisible work unit. The coordinator
 * publishes the round's units in a steal ledger ordered by published
 * backlog (most-loaded first, shard id as the tie-break); each woken
 * thread claims its *home* units first (shard s is homed on thread
 * s % T — affinity that keeps caches warm, not a correctness
 * requirement), then, when stealing is enabled, CAS-claims leftover
 * units off the top of the ledger. A claim word decides only WHICH
 * thread executes a unit, never WHAT the unit does: the unit's inputs
 * (window, sealed mailboxes, shard engine state) are all pre-barrier
 * state, packet-id counters live in the shard's Engine rather than in
 * thread-local storage, and pooled-object slabs outlive their
 * allocating thread (sim/pool.hh), so replaying the ledger on any
 * executor produces bit-identical results. Ingress stays pinned to the
 * owning shard: sealed mailboxes are drained into the destination
 * shard's engine by whichever thread executes that shard's unit,
 * before the unit's window runs, in port-registration order — exactly
 * the serial order.
 *
 * Between rounds the participating threads meet at a single
 * sense-reversing barrier: a shared countdown plus one doorbell word
 * per thread. The last thread to finish becomes the coordinator: it
 * seals every channel's outbox, picks the next window, chooses the
 * active shard set, builds the steal ledger, and rings the doorbells of
 * exactly the threads that have (or may steal) work. Only shards with
 * something runnable inside the window take part in a round; the rest
 * stay parked at no cost (idleParks()), and rounds with a single
 * participating thread skip the rendezvous entirely
 * (barrierRoundsSkipped()).
 *
 * Stall accounting: barrierStallTicks keeps its PR 3/5 meaning — idle
 * sim-ticks at the tails of windows a shard participated in. Stealing
 * cannot change that number (the windows are fixed by the protocol);
 * what it changes is whether those ticks cost idle *host* time. A
 * unit's tail stall is "covered" when its executor went on to run
 * another unit in the same round (stolen or home-multiplexed) instead
 * of idling at the barrier; residualStallTicks() = total - covered is
 * the stall that still manifests as host idle time. Steal counters and
 * coverage depend on host scheduling and are diagnostics, never
 * measurements.
 */

#ifndef NETCRAFTER_SIM_SHARDED_ENGINE_HH
#define NETCRAFTER_SIM_SHARDED_ENGINE_HH

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/progress_board.hh"
#include "src/sim/engine.hh"
#include "src/sim/types.hh"
#include "src/stats/stats.hh"

namespace netcrafter::sim {

/**
 * How a ShardedEngine maps shards (deterministic work partitions) onto
 * host threads (executors). Execution details only: every combination
 * produces bit-identical simulation results.
 */
struct ExecPolicy
{
    /**
     * Executor threads driving the shards; 0 means one per shard (the
     * classic PR 3 mapping). Clamped to [1, shards]. With fewer threads
     * than shards, thread t is home to shards {s : s % threads == t}
     * and multiplexes them within each round.
     */
    unsigned threads = 0;

    /**
     * Let a thread that drained its home units claim whole-window units
     * of other shards off the per-round steal ledger (most-loaded
     * first). Off by default; results are identical either way.
     */
    bool steal = false;

    /**
     * Steal granularity floor: a unit is only *steal*-eligible when its
     * shard's published backlog (pending events) is at least this many
     * events — home execution always covers every unit regardless.
     * Filters out steals whose migration cost (cold caches, pool-node
     * churn) exceeds the work moved.
     */
    std::uint32_t stealMinBacklog = 1;
};

/**
 * A directed cross-shard message queue, implemented by the wire
 * channels. During a window only the owning side writes to the outbox;
 * at the barrier the coordinator seals it (moves it to the import
 * side) and the opposite side drains the sealed entries at the start
 * of its next window. The barrier provides the happens-before edges,
 * so the queues themselves need no synchronization.
 */
class CrossShardPort
{
  public:
    virtual ~CrossShardPort() = default;

    /** Shard that produces flits (and consumes credit returns). */
    virtual unsigned srcShard() const = 0;

    /** Shard that consumes flits (and produces credit returns). */
    virtual unsigned dstShard() const = 0;

    /**
     * Minimum wire latency of any message this port can carry, in
     * ticks. Both directions for a wire channel (flits towards the
     * destination, credits back to the source) share the channel's
     * flight latency. Feeds the per-shard earliest-departure bound of
     * the window rule; must be >= 1 and constant after registration.
     */
    virtual Tick minLatency() const = 0;

    /**
     * Move everything currently queued in the outboxes to the sealed
     * import side, preserving order. Called only by the round
     * coordinator while every other thread is blocked, so it may touch
     * both sides without synchronization.
     */
    virtual void sealExports() = 0;

    /** Earliest sealed arrival tick addressed to the destination
     *  shard (flit deliveries), or kTickNever when none are queued. */
    virtual Tick earliestSealedArrivalAtDst() const = 0;

    /** Earliest sealed arrival tick addressed to the source shard
     *  (credit returns), or kTickNever. */
    virtual Tick earliestSealedArrivalAtSrc() const = 0;

    /** Drain sealed flits into the destination shard (on whichever
     *  thread executes the destination shard's unit this round). */
    virtual void importAtDst() = 0;

    /** Drain sealed credit returns into the source shard (on its
     *  unit's executor thread). */
    virtual void importAtSrc() = 0;

    /**
     * Entries still queued in this port's outboxes and sealed inboxes
     * (flits not yet imported at the destination plus credits not yet
     * returned home). The teardown census walks this; anything
     * non-zero at destruction means an aborted run left in-flight
     * state behind.
     */
    virtual std::size_t pendingExports() const { return 0; }
};

/**
 * One conservative quantum as seen from a shard, on the host clock:
 * which window it covered, when its unit entered/left it (seconds
 * since the ShardedEngine's construction), how many of its ticks were
 * barrier-imposed idle time, and which executor ran it. Feeds the
 * host-time trace lanes. Parked rounds record no span — the gaps in
 * the timeline are the rounds a shard slept through.
 */
struct QuantumSpan
{
    Tick windowStart = 0;
    Tick windowEnd = 0;
    double hostBegin = 0;
    double hostEnd = 0;
    std::uint64_t stallTicks = 0;

    /** Executor thread that ran this unit. */
    unsigned executor = 0;

    /** True when the executor was not the shard's home thread. */
    bool stolen = false;

    /** True when the executor ran another unit in the same round after
     *  this one, so stallTicks cost no idle host time. */
    bool covered = false;
};

/** One row of the per-round coordinator log (host-timeline only). */
struct RoundRecord
{
    std::uint64_t round = 0;
    double hostTime = 0;

    /** Active shards (= work units) in the round. */
    std::uint32_t units = 0;

    /** Threads woken for the round. */
    std::uint32_t threadsWoken = 0;

    /** Published-backlog spread max-min over the active shards (the
     *  donor/thief imbalance stealing exists to exploit). */
    std::uint64_t loadSpread = 0;

    /** Cumulative per-phase host seconds (summed over threads) at the
     *  time the round was decided; zeros unless self-profiling is
     *  armed. Feeds the host-trace phase counter tracks. */
    std::array<double, obs::kPhaseCount> phaseSeconds{};
};

/** Drives N shard Engines through conservative barrier-synced quanta. */
class ShardedEngine
{
  public:
    explicit ShardedEngine(unsigned shards, ExecPolicy exec = {});
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /** Number of shards (1 = plain serial execution, no threads). */
    unsigned
    numShards() const
    {
        return static_cast<unsigned>(engines_.size());
    }

    /** Executor threads (1 when serial; <= numShards() otherwise). */
    unsigned workThreads() const { return threads_; }

    /** The execution policy after clamping. */
    const ExecPolicy &execPolicy() const { return exec_; }

    /** The engine of shard @p s; components bind to it at build time. */
    Engine &shard(unsigned s) { return *engines_[s]; }
    const Engine &shard(unsigned s) const { return *engines_[s]; }

    /**
     * Register a cross-shard channel endpoint. Must happen before the
     * first run(); registration order fixes the (deterministic) order
     * in which a shard's unit drains its inboxes at each barrier. The
     * port's minLatency() lowers the earliest-departure bound of both
     * shards it touches.
     */
    void registerPort(CrossShardPort &port);

    /**
     * Drain every shard (or stop once the earliest pending event lies
     * beyond @p limit, returning LimitHit like Engine::run). With one
     * shard this is exactly Engine::run on the caller's thread.
     */
    RunStatus run(Tick limit = kTickNever);

    /**
     * Advance every shard's clock to the global maximum. Call after a
     * drained run(): shards stop at their own last event, but the next
     * kernel must dispatch from the same base tick the serial engine
     * would be at, and utilization denominators read now().
     */
    void alignClocks();

    /** Global time: the maximum over the shard clocks. */
    Tick now() const;

    /** Total events executed across all shards. */
    std::uint64_t eventsExecuted() const;

    /** Barrier-synchronized windows executed (0 when serial). */
    std::uint64_t quantaExecuted() const { return quantaExecuted_; }

    /**
     * Ticks at the tail of windows a shard participated in during
     * which it had no events left — idle time imposed by the
     * conservative window. Deterministic: a pure function of the round
     * protocol, identical for every thread count and steal schedule.
     * Rounds a shard slept through entirely are counted by
     * idleParks(), not here.
     */
    std::uint64_t
    barrierStallTicks(unsigned s) const
    {
        return stallTicks_[s];
    }

    /** Sum of barrierStallTicks over all shards. */
    std::uint64_t totalBarrierStallTicks() const;

    /**
     * Window-tail stall ticks whose executor thread ran another unit
     * in the same round right after — exposure the steal/multiplex
     * schedule converted into useful host time. Host-schedule
     * dependent: a diagnostic, not a measurement.
     */
    std::uint64_t coveredStallTicks() const;

    /** totalBarrierStallTicks() minus coveredStallTicks(): the stall
     *  that still cost idle host time at the barrier. */
    std::uint64_t residualStallTicks() const;

    /** Ledger claims attempted by non-home threads (diagnostic). */
    std::uint64_t stealAttempts() const;

    /** Ledger claims won by non-home threads: units that actually
     *  executed away from their home thread (diagnostic). */
    std::uint64_t stealsWon() const;

    /** Ledger claims lost to a concurrent claimant (diagnostic). */
    std::uint64_t stealsAborted() const;

    /**
     * Mean/max published-backlog spread (max - min pending events over
     * the round's active shards), sampled once per round with >= 2
     * active shards. Deterministic: published loads are sim state.
     */
    const stats::Average &loadSpreadAvg() const { return loadSpread_; }

    /**
     * Rounds that ran without any barrier rendezvous because a single
     * thread participated (the common tail of a run): the coordinator
     * role stays on that thread and no doorbell rendezvous happens.
     */
    std::uint64_t barrierRoundsSkipped() const
    {
        return barrierRoundsSkipped_;
    }

    /**
     * Times a shard was left parked through a quantum round because
     * nothing inside the window concerned it (summed over rounds and
     * shards).
     */
    std::uint64_t idleParks() const { return idleParks_; }

    /**
     * Width in ticks of every bounded window executed, bucketed.
     * Unbounded drain-ahead windows (no shard can emit) are excluded;
     * compare total() against quantaExecuted() to count them.
     */
    const stats::Distribution &windowTicksDist() const
    {
        return windowDist_;
    }

    /** Mean/min/max over the same bounded window widths. */
    const stats::Average &windowTicksAvg() const { return windowAvg_; }

    /**
     * Record a QuantumSpan per shard per participated window (and one
     * span per serial run() call) plus a RoundRecord per round for the
     * host-time trace. Off by default: the spans cost a clock read per
     * window.
     */
    void setHostTimelineEnabled(bool on) { hostTimeline_ = on; }
    bool hostTimelineEnabled() const { return hostTimeline_; }

    /** Host-time spans recorded for shard @p s, in execution order. */
    const std::vector<QuantumSpan> &
    hostSpans(unsigned s) const
    {
        return hostSpans_[s];
    }

    /** Per-round coordinator log (empty unless the host timeline is
     *  enabled). */
    const std::vector<RoundRecord> &roundLog() const { return roundLog_; }

    /**
     * Teardown census: panics if any cross-shard outbox still holds
     * exports or any shard still has pending events. Call before
     * destroying a sharded system whose last run may have aborted
     * (Engine::run hit its limit): pending events can hold pooled
     * handles, and while retired slabs keep the memory valid, leaked
     * in-flight state would silently skew any later run. No-op with
     * one shard.
     */
    void auditTeardown() const;

    /** Seconds since construction on the host steady clock. */
    double hostSeconds() const;

    /**
     * The lock-free live-progress board a background sampler
     * (obs::Telemetry) reads. Written unconditionally at window/round
     * granularity with relaxed stores — the cost is a handful of
     * stores per barrier round, never per event — so attaching or
     * detaching a sampler cannot perturb the simulation.
     */
    obs::ProgressBoard &progressBoard() { return board_; }
    const obs::ProgressBoard &progressBoard() const { return board_; }

    /**
     * Arm host-time self-profiling: scoped phase timers (execute /
     * barrier-wait / ingress / steal-scan / export) accumulated per
     * thread into the progress board. Off by default — armed, each
     * phase transition costs one steady-clock read on the executor.
     * Host-time diagnostics only; simulation results are identical
     * either way.
     */
    void setProfilingEnabled(bool on) { profiling_ = on; }
    bool profilingEnabled() const { return profiling_; }

    /** Attribute @p ns of host time to @p p (thread-0 row). The
     *  harness uses this to book artifact export against the run. */
    void
    addPhaseNanos(obs::Phase p, std::uint64_t ns)
    {
        board_.addPhaseNanos(0, p, ns);
    }

    /**
     * Flight-recorder snapshot for hang diagnosis: per-shard published
     * tick/events/backlog/next-event plus claim words, per-thread
     * doorbell words, pending cross-shard exports, the last few trace
     * records per shard, and the suspected stuck shard (earliest
     * published next-event tick with a non-empty backlog). Reads the
     * board and protocol atomics plus — best-effort — non-atomic
     * diagnostic state; meant to run when the engine is wedged or
     * quiescent, so racy reads cost accuracy, not safety-critical
     * state.
     */
    void dumpFlightRecord(std::ostream &os) const;

  private:
    struct Coordination;

    /** Per-thread phase-timer state; touched only by the owning
     *  thread. */
    struct PhaseClock
    {
        bool open = false;
        obs::Phase cur = obs::Phase::Execute;
        std::chrono::steady_clock::time_point last;
    };

    void phaseOpen(unsigned t, obs::Phase p);
    void phaseSwitch(unsigned t, obs::Phase next);
    void phaseFlush(unsigned t);

    /** Coordinator-exclusive: publish round-granularity board state. */
    void publishRound();

    /** Home executor of shard @p s under the round-robin map. */
    unsigned homeThread(unsigned s) const { return s % threads_; }

    void decide() noexcept;
    std::uint64_t execUnit(unsigned s, unsigned t);
    void threadLoop(unsigned t);
    void workerMain(unsigned t);

    std::vector<std::unique_ptr<Engine>> engines_;
    std::vector<CrossShardPort *> ports_;
    ExecPolicy exec_;
    unsigned threads_ = 1;

    /** Min latency over channels leaving each shard (flit or credit
     *  direction), kTickNever when the shard cannot emit at all. */
    std::vector<Tick> minOutLatency_;

    std::unique_ptr<Coordination> coord_;
    std::vector<std::uint64_t> stallTicks_;
    std::uint64_t quantaExecuted_ = 0;
    std::uint64_t barrierRoundsSkipped_ = 0;
    std::uint64_t idleParks_ = 0;
    stats::Distribution windowDist_;
    stats::Average windowAvg_;
    stats::Average loadSpread_;

    // Per-thread executor tallies, written only by the owning thread
    // during rounds and read after runs complete.
    std::vector<std::uint64_t> stealAttempts_;
    std::vector<std::uint64_t> stealsWon_;
    std::vector<std::uint64_t> stealsAborted_;
    std::vector<std::uint64_t> coveredStall_;

    bool hostTimeline_ = false;
    std::chrono::steady_clock::time_point epoch_;
    std::vector<std::vector<QuantumSpan>> hostSpans_;
    std::vector<RoundRecord> roundLog_;

    obs::ProgressBoard board_;
    bool profiling_ = false;
    std::vector<PhaseClock> phaseClocks_;
};

} // namespace netcrafter::sim

#endif // NETCRAFTER_SIM_SHARDED_ENGINE_HH

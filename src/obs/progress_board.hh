/**
 * @file
 * Lock-free live-progress publication: the ProgressBoard a ShardedEngine
 * exposes so a background sampler (obs::Telemetry) can observe a running
 * simulation without perturbing it.
 *
 * Design constraints, in priority order:
 *  - non-perturbing: every field is a relaxed atomic written by the
 *    executor/coordinator threads at window or round granularity (plus a
 *    1/4096-event publish inside Engine::runWindow for serial liveness),
 *    so a run with a sampler attached stays bit-identical to one
 *    without — the board is written unconditionally and the sampler
 *    only ever *reads*;
 *  - no include cycle: sim owns a board and obs samples it, so this
 *    header depends on sim/types.hh only.
 *
 * Everything here is host-side diagnostics. Nothing read from a board
 * may ever feed back into simulation state.
 */

#ifndef NETCRAFTER_OBS_PROGRESS_BOARD_HH
#define NETCRAFTER_OBS_PROGRESS_BOARD_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>

#include "src/sim/types.hh"

namespace netcrafter::obs {

/**
 * Execution phases the host-time self-profiler attributes wall time
 * to. Coordinator work (decide()) is lumped into BarrierWait: it runs
 * on whichever thread arrived last, while every other thread is parked.
 */
enum class Phase : unsigned
{
    Execute = 0,  ///< inside Engine::runWindow, dispatching events
    BarrierWait,  ///< parked on the doorbell / coordinating the round
    Ingress,      ///< draining sealed cross-shard mailboxes
    StealScan,    ///< walking the claim words and the steal ledger
    Export,       ///< post-run artifact export (harness-attributed)
};

/** Number of Phase values (for tables indexed by phase). */
inline constexpr unsigned kPhaseCount = 5;

/** Stable lower-snake name for a phase ("barrier_wait", ...). */
inline const char *
phaseName(Phase p)
{
    switch (p) {
      case Phase::Execute: return "execute";
      case Phase::BarrierWait: return "barrier_wait";
      case Phase::Ingress: return "ingress";
      case Phase::StealScan: return "steal_scan";
      case Phase::Export: return "export";
    }
    return "(invalid)";
}

/**
 * One shard's progress cell, padded to its own cache line so the
 * publishing executor never false-shares with a neighbour. tick/
 * events/backlog are (re)published by the shard's executor after every
 * window and by the shard Engine itself every 4096 events mid-window;
 * nextTick only at the barrier. serveInflight and flowLanesActive are
 * gauges bumped by the serve/flow subsystems from inside the shard's
 * event context (exactly one thread at a time, per the claim protocol).
 */
struct alignas(64) ShardCell
{
    std::atomic<std::uint64_t> tick{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> backlog{0};
    std::atomic<std::uint64_t> nextTick{kTickNever};
    std::atomic<std::uint64_t> serveInflight{0};
    std::atomic<std::uint64_t> flowLanesActive{0};
};

/**
 * The whole board: per-shard cells, round-granularity global counters
 * (coordinator-published), and per-thread×phase host-nanosecond
 * accumulators. Owned by the ShardedEngine; init() is called exactly
 * once from its constructor.
 */
class ProgressBoard
{
  public:
    ProgressBoard() = default;

    ProgressBoard(const ProgressBoard &) = delete;
    ProgressBoard &operator=(const ProgressBoard &) = delete;

    void
    init(unsigned shards, unsigned threads)
    {
        shards_ = shards;
        threads_ = threads;
        cells_ = std::make_unique<ShardCell[]>(shards);
        phaseNs_ = std::make_unique<PhaseRow[]>(threads);
    }

    unsigned shards() const { return shards_; }
    unsigned threads() const { return threads_; }

    ShardCell &cell(unsigned s) { return cells_[s]; }
    const ShardCell &cell(unsigned s) const { return cells_[s]; }

    /** Attribute @p ns of thread @p t's wall time to phase @p p. */
    void
    addPhaseNanos(unsigned t, Phase p, std::uint64_t ns)
    {
        phaseNs_[t].ns[static_cast<unsigned>(p)].fetch_add(
            ns, std::memory_order_relaxed);
    }

    /** Nanoseconds attributed to @p p, summed over all threads. */
    std::uint64_t
    phaseNanos(Phase p) const
    {
        std::uint64_t sum = 0;
        for (unsigned t = 0; t < threads_; ++t)
            sum += phaseNs_[t].ns[static_cast<unsigned>(p)].load(
                std::memory_order_relaxed);
        return sum;
    }

    /** Seconds attributed to @p p, summed over all threads. */
    double
    phaseSeconds(Phase p) const
    {
        return static_cast<double>(phaseNanos(p)) * 1e-9;
    }

    /** Events executed, summed over the shard cells. */
    std::uint64_t
    totalEvents() const
    {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < shards_; ++s)
            sum += cells_[s].events.load(std::memory_order_relaxed);
        return sum;
    }

    /** Pending events, summed over the shard cells. */
    std::uint64_t
    totalBacklog() const
    {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < shards_; ++s)
            sum += cells_[s].backlog.load(std::memory_order_relaxed);
        return sum;
    }

    /** Inflight served requests, summed over the shard cells. */
    std::uint64_t
    totalServeInflight() const
    {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < shards_; ++s)
            sum += cells_[s].serveInflight.load(std::memory_order_relaxed);
        return sum;
    }

    /** Active flow-fidelity lanes, summed over the shard cells. */
    std::uint64_t
    totalFlowLanesActive() const
    {
        std::uint64_t sum = 0;
        for (unsigned s = 0; s < shards_; ++s)
            sum +=
                cells_[s].flowLanesActive.load(std::memory_order_relaxed);
        return sum;
    }

    // Round-granularity global state, published by the coordinator at
    // each decide() with exclusive access (plain relaxed stores).
    std::atomic<std::uint64_t> round{0};
    std::atomic<std::uint64_t> windowStart{0};
    std::atomic<std::uint64_t> windowEnd{kTickNever};
    std::atomic<std::uint64_t> quanta{0};
    std::atomic<std::uint64_t> stallTicks{0};
    std::atomic<std::uint64_t> stealsWon{0};
    std::atomic<std::uint64_t> idleParks{0};

  private:
    struct alignas(64) PhaseRow
    {
        std::array<std::atomic<std::uint64_t>, kPhaseCount> ns{};
    };

    unsigned shards_ = 0;
    unsigned threads_ = 0;
    std::unique_ptr<ShardCell[]> cells_;
    std::unique_ptr<PhaseRow[]> phaseNs_;
};

} // namespace netcrafter::obs

#endif // NETCRAFTER_OBS_PROGRESS_BOARD_HH

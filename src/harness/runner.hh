/**
 * @file
 * Experiment harness: runs one (workload, configuration) pair and
 * extracts every statistic the paper's figures need into a flat result
 * record, so each figure just sweeps configs and prints rows.
 */

#ifndef NETCRAFTER_HARNESS_RUNNER_HH
#define NETCRAFTER_HARNESS_RUNNER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/flow/fidelity.hh"
#include "src/obs/trace.hh"
#include "src/serve/serve_config.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/types.hh"

namespace netcrafter::harness {

/**
 * Per-class latency summary of an open-loop serving run (all zero for
 * closed-loop runs). Percentiles are in cycles, from the mergeable
 * quantile sketch — identical for every shard count.
 */
struct ServeClassResult
{
    std::uint64_t measured = 0;
    double meanLatency = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p95 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t p999 = 0;

    friend bool operator==(const ServeClassResult &,
                           const ServeClassResult &) = default;
};

/** Everything measured in one simulation run. */
struct RunResult
{
    std::string workload;

    /** End-to-end execution time, cycles. */
    Tick cycles = 0;

    /** Discrete events executed (simulator cost, not modelled time). */
    std::uint64_t events = 0;

    std::uint64_t instructions = 0;
    std::uint64_t l1ReadAccesses = 0;
    std::uint64_t l1ReadMisses = 0;
    double l1Mpki = 0;

    // Inter-cluster link census -----------------------------------------
    std::uint64_t interFlits = 0;
    std::uint64_t interWireBytes = 0;
    std::uint64_t interUsefulBytes = 0;
    double interUtilization = 0;
    double ptwByteFraction = 0;

    /** Fraction of flits ~25% or ~75% padded (Figure 6). */
    double paddedFlitFraction = 0;
    double quarterPaddedFraction = 0;
    double threeQuarterPaddedFraction = 0;

    /** Fraction of logical flits that travelled stitched (Figure 12). */
    double stitchedFraction = 0;
    std::uint64_t stitchedPieces = 0;

    std::uint64_t trimmedPackets = 0;
    std::uint64_t bytesTrimmed = 0;
    std::uint64_t poolingArms = 0;

    // Remote access behaviour -------------------------------------------
    double avgInterReadLatency = 0;
    std::uint64_t interReads = 0;
    std::uint64_t remoteReads = 0;
    std::uint64_t localReads = 0;
    std::uint64_t pageWalks = 0;
    double meanWalkLength = 0;

    /** Bytes-needed census of inter-cluster reads:
     *  <=16 / <=32 / <=48 / <64 / 64 fractions (Figure 7). */
    std::array<double, 5> bytesNeededFrac{};

    // Open-loop serving (all zero for closed-loop runs) -----------------
    /** Offered load in requests per kilocycle (0 = closed-loop run). */
    double offeredLoad = 0;

    /** Requests injected / arrived-in-window / retired. */
    std::uint64_t serveInjected = 0;
    std::uint64_t serveMeasured = 0;
    std::uint64_t serveCompleted = 0;

    /** Peak simultaneously in-flight requests on any single GPU. */
    std::uint64_t servePeakInflight = 0;

    /** Measured completions per kilocycle (saturation-curve y-axis). */
    double serveThroughput = 0;

    /** Latency summaries: read, write, ptw, then the aggregate. */
    std::array<ServeClassResult, 4> serveClasses{};

    /** Host seconds the simulation took (diagnostics only). */
    double wallSeconds = 0;

    // Sharded execution census (diagnostics only: they describe how the
    // simulator ran, not what it simulated — the shard count never
    // changes a measurement) ------------------------------------------
    /** Engine shards the run executed on (1 = serial). */
    unsigned shards = 1;

    /** Barrier-synchronized windows the sharded engine executed. */
    std::uint64_t quantaExecuted = 0;

    /** Summed idle ticks shards spent waiting at window tails. */
    std::uint64_t barrierStallTicks = 0;

    /** Flits re-materialized across shard boundaries. */
    std::uint64_t crossShardFlits = 0;

    /** Peak per-channel ingress-queue depth at a quantum barrier. */
    std::uint64_t maxIngressDepth = 0;

    /** Rounds that ran without a barrier rendezvous because only one
     *  shard had runnable events. */
    std::uint64_t barrierRoundsSkipped = 0;

    /** Rounds a shard slept through entirely (summed over shards and
     *  rounds) instead of spinning at the window tail. */
    std::uint64_t idleParks = 0;

    /** Executor threads that drove the shards (1 = serial). */
    unsigned workThreads = 1;

    /** Whole-window steal claims attempted by non-home threads. */
    std::uint64_t stealAttempts = 0;

    /** Steal claims won: units executed away from their home thread. */
    std::uint64_t stealsWon = 0;

    /** Steal claims lost to a concurrent claimant. */
    std::uint64_t stealsAborted = 0;

    /** Window-tail stall ticks whose executor immediately ran another
     *  unit in the same round — stall converted into useful host time
     *  by multiplexing or stealing. */
    std::uint64_t coveredStallTicks = 0;

    /** barrierStallTicks minus coveredStallTicks: stall that still
     *  cost idle host time at the barrier. */
    std::uint64_t residualStallTicks = 0;

    /** Mean published-backlog spread (max - min pending events) over
     *  each round's active shards — the donor/thief imbalance work
     *  stealing exploits. Deterministic for a given shard count. */
    double loadSpreadMean = 0;

    /** Bounded adaptive-window widths the coordinator picked, in
     *  ticks: sample count, mean, and max (0/0/0 when serial or when
     *  every window was an unbounded drain-ahead stride). */
    std::uint64_t adaptiveWindowSamples = 0;
    double adaptiveWindowMean = 0;
    double adaptiveWindowMax = 0;

    // Simulator hot-path census ----------------------------------------
    /** Events executed per host wall-clock second (diagnostics only). */
    double eventsPerSecond = 0;

    /** Events scheduled within near-future wheels, summed over shards
     *  (diagnostics only: the near/far split depends on each shard's
     *  clock at scheduling time, which sharding changes). */
    std::uint64_t nearEvents = 0;

    /** Events that overflowed into the far-future heaps (diagnostics
     *  only, see nearEvents). */
    std::uint64_t farEvents = 0;

    /** Peak simultaneously pending one-shot callback events, summed
     *  over shards (diagnostics only: per-shard peaks don't sum to the
     *  serial peak). */
    std::uint64_t callbackPoolHighWater = 0;

    /** Bytes held by the engines' one-shot event node arenas
     *  (diagnostics only, see callbackPoolHighWater). */
    std::uint64_t callbackArenaBytes = 0;

    /** Peak live packets in this thread's arena (diagnostics only:
     *  thread-local pools accumulate across runs on a worker thread). */
    std::uint64_t packetPoolHighWater = 0;

    /** Peak live flits in this thread's arena (diagnostics only). */
    std::uint64_t flitPoolHighWater = 0;

    /** Bytes held by this thread's packet + flit arenas (diagnostics). */
    std::uint64_t poolArenaBytes = 0;

    /** SmallFn captures that spilled to the heap on this thread; the
     *  hot path stays at 0 (diagnostics only). */
    std::uint64_t smallFnHeapAllocs = 0;

    // Observability census (diagnostics only: tracing never changes a
    // measurement, and the record count depends on the trace level) ----
    /** Trace records captured across all shards (0 with tracing off). */
    std::uint64_t traceRecords = 0;

    /** Trace records dropped because a shard buffer hit its cap. */
    std::uint64_t traceDropped = 0;

    /** Time-series rows the interval sampler produced. */
    std::uint64_t sampleRows = 0;

    // Flow-lane fidelity census (all zero at cycle fidelity). Unlike
    // the shard count, fidelity CAN change measurements — flow/hybrid
    // results approximate cycle results — which is why it sits below
    // the sameMeasurement() cut as run metadata, and why experiment
    // caches key on it (see exp::ResultCache). ------------------------
    /** Fidelity the run executed at. */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    /** Packets whose round trip was fused onto the flow lane. */
    std::uint64_t flowPackets = 0;

    /** Packets classified back to the flit path (Hybrid warmup,
     *  contention windows). */
    std::uint64_t flowCyclePackets = 0;

    /** Flow-lane packets delivered (== flowPackets after a drain). */
    std::uint64_t flowPacketsDelivered = 0;

    /** Post-trim bytes entering / leaving the flow lane; exact
     *  conservation means the two are equal after a drained run. */
    std::uint64_t flowBytesInjected = 0;
    std::uint64_t flowBytesDelivered = 0;

    /** Rate-estimation epochs closed across lanes. */
    std::uint64_t flowEpochsClosed = 0;

    /** Hybrid lane transitions: cycle->flow and flow->cycle. */
    std::uint64_t flowLaneActivations = 0;
    std::uint64_t flowLaneEscalations = 0;

    /** Max-min fair-share recomputations the flow model ran. */
    std::uint64_t flowRecomputes = 0;

    /** Flow-lane wait decomposition: analytic M/D/1 latency added on
     *  top of the virtual-FIFO backlog, and the backlog itself. */
    std::uint64_t flowMd1WaitTicks = 0;
    std::uint64_t flowFifoWaitTicks = 0;

    // Wire-head conservation census ------------------------------------
    /** Inter-cluster flits delivered at wire heads (conservation
     *  check: equals interFlits after a drained cycle-fidelity run —
     *  flow-lane synthetic flits are credited, not delivered). */
    std::uint64_t wireFlitsDelivered = 0;

    /** Wire bytes delivered at wire heads (see wireFlitsDelivered). */
    std::uint64_t wireBytesDelivered = 0;

    // Host-time self-profiling census (diagnostics only: host seconds
    // per execution phase, summed over executor threads; all zero
    // unless profiling was armed — telemetry running, tracing on, or
    // NETCRAFTER_PROFILE) ----------------------------------------------
    /** Host seconds dispatching events inside windows. */
    double phaseExecuteSeconds = 0;

    /** Host seconds parked at (or coordinating) the round barrier. */
    double phaseBarrierWaitSeconds = 0;

    /** Host seconds draining sealed cross-shard mailboxes. */
    double phaseIngressSeconds = 0;

    /** Host seconds scanning claim words and the steal ledger. */
    double phaseStealScanSeconds = 0;

    /** Host seconds exporting trace artifacts after the run. */
    double phaseExportSeconds = 0;

    /** NC_WARN_ONCE repeats suppressed during the run (diagnostics
     *  only; non-zero means stderr hid repeated warnings). */
    std::uint64_t warningsSuppressed = 0;
};

/**
 * Everything one simulation depends on. A run is a pure function of its
 * spec: the library reads no run argument from the environment (CLI
 * entry points fill specs from NETCRAFTER_* variables and flags through
 * harness::overlayEnv, see env_overlay.hh).
 */
struct RunSpec
{
    /** Table 3 abbreviation or "GEMM"; ignored when serve.enabled. */
    std::string workload;

    /**
     * Open-loop serving scenario. When enabled the run serves it
     * instead of running @p workload, fills the serve_* result fields,
     * and names the result "serve-<arrival>".
     */
    serve::ServeConfig serve;

    config::SystemConfig config;

    /** Problem-size multiplier (per-wavefront instruction counts, or
     *  the serving footprint). */
    double scale = 1.0;

    /**
     * Engine shards (see sim::ShardedEngine); more than the cluster
     * count is fatal. Every measured field of the result is identical
     * for every shard count - only the diagnostics differ.
     */
    unsigned shards = 1;

    /** Executor threads and work stealing: an execution detail that
     *  never changes a measurement. */
    sim::ExecPolicy exec{};

    /**
     * Execution fidelity. Run metadata, not a config field: flow and
     * hybrid runs approximate the cycle measurement (the validation
     * harness bounds the error), so results from different fidelities
     * must never be conflated - exp::ResultCache keys on it. Non-cycle
     * fidelities require shards == 1.
     */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    /**
     * Tracing, disabled by default. When it names an output directory
     * the run writes `<outDir>/<workload>-<digest>-s<scale>-n<shards>.
     * {trace.json,host.trace.json,timeseries.csv,stats.json}`: sim-time
     * and host-time Chrome traces, the interval time-series, and the
     * full statistics registry with the folded packet-lifecycle
     * distributions.
     */
    obs::TraceOptions trace{};
};

/** Simulate @p spec and extract every statistic the figures need. */
RunResult run(const RunSpec &spec);

/** Geometric mean of a sequence of positive ratios. */
double geomean(const std::vector<double> &xs);

/**
 * True when @p a and @p b report identical measurements — every field
 * except the diagnostics (wall-clock rates, shard-execution census,
 * per-shard queue/pool gauges). Exact comparison: the simulator is
 * deterministic, so equal inputs must produce bit-equal outputs — in
 * particular a serial and a sharded run of the same (workload, config)
 * must compare equal.
 */
bool sameMeasurement(const RunResult &a, const RunResult &b);

} // namespace netcrafter::harness

#endif // NETCRAFTER_HARNESS_RUNNER_HH

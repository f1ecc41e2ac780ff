#include "src/harness/runner.hh"

#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "src/gpu/system.hh"
#include "src/obs/chrome_trace.hh"
#include "src/serve/session.hh"
#include "src/obs/interval_sampler.hh"
#include "src/obs/lifecycle.hh"
#include "src/obs/progress_board.hh"
#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"
#include "src/sim/pool.hh"
#include "src/sim/small_fn.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::harness {

namespace {

/** Per-run output path prefix inside the trace directory. */
std::string
traceFileBase(const RunSpec &spec, const std::string &workload,
              unsigned shards)
{
    std::ostringstream base;
    base << spec.trace.outDir << '/' << workload << '-'
         << config::digestHex(spec.config) << "-s" << spec.scale
         << "-n" << shards;
    return base.str();
}

/**
 * Fill every system-derived field of @p r — the measurement and
 * diagnostic census shared by workload and serving runs.
 */
void
collectSystemStats(RunResult &r, gpu::MultiGpuSystem &system,
                   const config::SystemConfig &cfg)
{
    r.cycles = system.cycles();
    r.events = system.engines().eventsExecuted();
    r.instructions = system.totalInstructions();
    r.l1ReadAccesses = system.l1ReadAccesses();
    r.l1ReadMisses = system.l1ReadMisses();
    r.l1Mpki = system.l1Mpki();

    const noc::Network &net = system.network();
    noc::TrafficMonitor census = net.aggregateInterClusterTraffic();
    r.interFlits = census.totalFlits();
    r.interWireBytes = census.totalWireBytes();
    r.interUsefulBytes = census.totalUsefulBytes();
    r.interUtilization = net.interClusterUtilization();
    r.ptwByteFraction = census.ptwByteFraction();
    r.paddedFlitFraction = census.fractionQuarterOrThreeQuarterPadded();
    if (census.totalFlits() > 0) {
        r.quarterPaddedFraction =
            static_cast<double>(census.flitsQuarterPadded()) /
            static_cast<double>(census.totalFlits());
        r.threeQuarterPaddedFraction =
            static_cast<double>(census.flitsThreeQuarterPadded()) /
            static_cast<double>(census.totalFlits());
    }
    r.stitchedFraction = census.stitchedFlitFraction();
    r.stitchedPieces = census.stitchedPieces();

    for (ClusterId from = 0; from < cfg.numClusters; ++from) {
        for (ClusterId to = 0; to < cfg.numClusters; ++to) {
            if (from == to)
                continue;
            const auto *ctrl = net.controller(from, to);
            if (ctrl == nullptr)
                continue;
            r.trimmedPackets += ctrl->trimStats().packetsTrimmed;
            r.bytesTrimmed += ctrl->trimStats().bytesTrimmed;
            r.poolingArms += ctrl->stats().poolingArms;
        }
    }

    r.avgInterReadLatency = system.interClusterReadLatency().mean();
    r.interReads = system.interClusterReadLatency().count();
    r.remoteReads = system.remoteReads();
    r.localReads = system.localReads();
    r.pageWalks = system.pageWalks();
    r.meanWalkLength = system.meanWalkLength();

    const stats::Distribution dist = system.remoteReadBytesNeeded();
    for (std::size_t i = 0; i < r.bytesNeededFrac.size(); ++i)
        r.bytesNeededFrac[i] = dist.fraction(i);

    const sim::ShardedEngine &engines = system.engines();
    r.shards = engines.numShards();
    r.quantaExecuted = engines.quantaExecuted();
    r.barrierStallTicks = engines.totalBarrierStallTicks();
    r.crossShardFlits = system.network().crossShardFlits();
    r.maxIngressDepth = system.network().maxIngressDepth();
    r.barrierRoundsSkipped = engines.barrierRoundsSkipped();
    r.idleParks = engines.idleParks();
    r.workThreads = engines.workThreads();
    r.stealAttempts = engines.stealAttempts();
    r.stealsWon = engines.stealsWon();
    r.stealsAborted = engines.stealsAborted();
    r.coveredStallTicks = engines.coveredStallTicks();
    r.residualStallTicks = engines.residualStallTicks();
    r.loadSpreadMean = engines.loadSpreadAvg().mean();
    r.adaptiveWindowSamples = engines.windowTicksAvg().count();
    r.adaptiveWindowMean = engines.windowTicksAvg().mean();
    r.adaptiveWindowMax = engines.windowTicksAvg().max();
    for (unsigned s = 0; s < engines.numShards(); ++s) {
        const sim::Engine &engine = engines.shard(s);
        r.nearEvents += engine.queue().nearScheduled();
        r.farEvents += engine.queue().farScheduled();
        r.callbackPoolHighWater += engine.callbackPoolHighWater();
        r.callbackArenaBytes += engine.callbackArenaBytes();
    }
    const auto &packet_pool = sim::ObjectPool<noc::Packet>::local();
    const auto &flit_pool = sim::ObjectPool<noc::Flit>::local();
    r.packetPoolHighWater = packet_pool.highWater();
    r.flitPoolHighWater = flit_pool.highWater();
    r.poolArenaBytes = packet_pool.arenaBytes() + flit_pool.arenaBytes();
    r.smallFnHeapAllocs = sim::SmallFn::heapAllocations();

    r.wireFlitsDelivered =
        system.network().interClusterFlitsDelivered();
    r.wireBytesDelivered =
        system.network().interClusterBytesDelivered();

    r.fidelity = system.fidelity();
    if (const flow::FidelityController *ctl = system.flowController()) {
        const flow::FlowLaneStats &fs = ctl->stats();
        r.flowPackets = fs.flowPackets;
        r.flowCyclePackets = fs.cyclePackets;
        r.flowPacketsDelivered = fs.flowPacketsDelivered;
        r.flowBytesInjected = fs.flowBytesInjected;
        r.flowBytesDelivered = fs.flowBytesDelivered;
        r.flowEpochsClosed = fs.epochsClosed;
        r.flowLaneActivations = fs.laneActivations;
        r.flowLaneEscalations = fs.laneEscalations;
        r.flowRecomputes = fs.recomputes;
        r.flowMd1WaitTicks = fs.md1WaitTicks;
        r.flowFifoWaitTicks = fs.fifoWaitTicks;
        // Flow-lane trim folds into the headline trim census so
        // figure extraction is fidelity-agnostic.
        r.trimmedPackets += ctl->trimStats().packetsTrimmed;
        r.bytesTrimmed += ctl->trimStats().bytesTrimmed;
    }

    // Host-time self-profiling census. The board accumulates zeros
    // unless profiling was armed, so the columns are free otherwise.
    const obs::ProgressBoard &board = engines.progressBoard();
    r.phaseExecuteSeconds = board.phaseSeconds(obs::Phase::Execute);
    r.phaseBarrierWaitSeconds =
        board.phaseSeconds(obs::Phase::BarrierWait);
    r.phaseIngressSeconds = board.phaseSeconds(obs::Phase::Ingress);
    r.phaseStealScanSeconds =
        board.phaseSeconds(obs::Phase::StealScan);
    r.phaseExportSeconds = board.phaseSeconds(obs::Phase::Export);
}

/** Write the per-run trace artifacts and fill the trace census. */
void
exportTraceArtifacts(RunResult &r, gpu::MultiGpuSystem &system,
                     const RunSpec &spec)
{
    const obs::TraceOptions &trace = spec.trace;
    const std::string &name = r.workload;
    if (system.traceSink() != nullptr) {
        const auto t_export = std::chrono::steady_clock::now();
        const obs::TraceSink &sink = *system.traceSink();
        const std::vector<obs::TraceRecord> merged = sink.merged();
        r.traceRecords = sink.totalRecords();
        r.traceDropped = sink.totalDropped();
        if (r.traceDropped > 0) {
            NC_WARN("trace ring overflow: ", r.traceDropped, " of ",
                    r.traceRecords + r.traceDropped,
                    " records dropped for ", name,
                    " - raise TraceOptions::bufferCap or lower the "
                    "trace level");
        }

        obs::TimeSeries series;
        if (trace.sampleInterval > 0) {
            series = obs::IntervalSampler(trace.sampleInterval)
                         .sample(merged, sink.laneNames());
            r.sampleRows = series.rows.size();
        }

        if (!trace.outDir.empty()) {
            std::filesystem::create_directories(trace.outDir);
            const std::string base =
                traceFileBase(spec, name, system.numShards());
            {
                std::ofstream os(base + ".trace.json");
                obs::writeSimChromeTrace(merged, sink.laneNames(), os);
            }
            {
                std::ofstream os(base + ".host.trace.json");
                obs::writeHostChromeTrace(system.engines(), os);
            }
            if (trace.sampleInterval > 0) {
                std::ofstream os(base + ".timeseries.csv");
                obs::writeTimeSeriesCsv(series, os);
            }
            {
                // Lifecycle stats only: the full collectStats() registry
                // also carries host-execution diagnostics (barrier
                // stalls, pool high-water marks) that legitimately vary
                // with the shard count, and this file must stay
                // byte-identical across shard counts.
                stats::Registry reg;
                obs::foldLifecycle(merged, reg);
                std::ofstream os(base + ".stats.json");
                obs::writeRegistryJson(reg, os);
            }
        }

        // Export runs after collectSystemStats read the board, so the
        // result column is stamped here as well as booked into the
        // board (which the heartbeat sampler reads live).
        const auto ns = std::chrono::duration_cast<
            std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_export);
        system.engines().addPhaseNanos(
            obs::Phase::Export, static_cast<std::uint64_t>(ns.count()));
        r.phaseExportSeconds +=
            static_cast<double>(ns.count()) * 1e-9;
    }
}

/** Stamp the host wall-clock diagnostics. */
void
finishTiming(RunResult &r,
             std::chrono::steady_clock::time_point t_start)
{
    const auto t_end = std::chrono::steady_clock::now();
    r.wallSeconds =
        std::chrono::duration<double>(t_end - t_start).count();
    if (r.wallSeconds > 0) {
        r.eventsPerSecond =
            static_cast<double>(r.events) / r.wallSeconds;
    }
}

/** Fill the serve_* fields from a serving session's report. */
void
collectServeStats(RunResult &r, const serve::ServeConfig &serve,
                  const serve::ServeReport &report)
{
    r.offeredLoad = serve.offeredLoad;
    r.serveInjected = report.injected;
    r.serveMeasured = report.measured;
    r.serveCompleted = report.completed;
    r.servePeakInflight = report.peakInflight;
    r.serveThroughput = report.throughput;
    for (std::size_t c = 0; c < serve::kNumTrafficClasses; ++c)
        r.serveClasses[c] = report.perClass[c];
    r.serveClasses[3] = report.aggregate;
}

} // namespace

RunResult
run(const RunSpec &spec)
{
    const auto t_start = std::chrono::steady_clock::now();
    const std::uint64_t warn0 = netcrafter::suppressedWarnCount();

    RunResult r;
    // Outlives the system, which may point into its kernels until
    // teardown.
    const workloads::WorkloadPtr workload =
        spec.serve.enabled ? nullptr
                           : workloads::makeWorkload(spec.workload);
    gpu::MultiGpuSystem system(spec.config, spec.shards, spec.trace,
                               spec.exec, spec.fidelity);
    if (spec.serve.enabled) {
        serve::ServeSession session(system, spec.serve, spec.scale);
        const serve::ServeReport report = session.run();
        if (report.status != sim::RunStatus::Drained) {
            NC_FATAL("serving run (", spec.serve.toString(),
                     ") exceeded the cycle limit - the offered load is "
                     "beyond saturation or the limit is undersized");
        }
        r.workload = std::string("serve-") +
                     serve::arrivalKindName(spec.serve.arrival);
        collectServeStats(r, spec.serve, report);
    } else {
        system.run(*workload, spec.scale);
        r.workload = spec.workload;
    }
    collectSystemStats(r, system, spec.config);
    r.warningsSuppressed = netcrafter::suppressedWarnCount() - warn0;
    exportTraceArtifacts(r, system, spec);
    finishTiming(r, t_start);
    return r;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        NC_ASSERT(x > 0, "geomean of non-positive value");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

bool
sameMeasurement(const RunResult &a, const RunResult &b)
{
    bool same = a.workload == b.workload;
#define NC_METRIC(type, member, column, kind)                           \
    same = same && (MetricKind::kind == MetricKind::Diagnostic ||       \
                    a.member == b.member);
#include "src/harness/run_metrics.def"
#undef NC_METRIC
    return same;
}

} // namespace netcrafter::harness

/**
 * @file
 * The open-loop serving session: wires arrival streams, traffic
 * classes, and latency accounting onto a MultiGpuSystem.
 *
 * Model: every (GPU, class) pair owns one request stream. A stream's
 * arrival ticks come from its ArrivalSequence (counter-based draws, so
 * the schedule is a pure function of the serve seed); each arrival
 * dispatches one tagged wavefront of the class's request kernel onto
 * the GPU's CUs, and the wavefront's retirement marks the request
 * complete. Latency = retire tick - arrival tick, i.e. queueing in
 * pendingWaves + CU residency including every memory-system round trip
 * — the end-to-end number an SLO would bound.
 *
 * Phasing: arrivals are generated for [0, warmup + measure); only
 * requests arriving inside [warmup, warmup + measure) are recorded.
 * After the last arrival the system drains naturally (the engine run
 * ends when the queues empty), so tail requests complete and no
 * latency is truncated.
 *
 * Shard invariance: a stream lives entirely on its GPU's shard —
 * arrival events run on the home engine, the wave executes on the home
 * GPU, and the retire hook fires on the same shard, recording into
 * per-GPU sketches. Reports merge those sketches in (class, GPU) order
 * with exact integer merges, so every reported number is bit-identical
 * for 1, 2, or 4 shards.
 */

#ifndef NETCRAFTER_SERVE_SESSION_HH
#define NETCRAFTER_SERVE_SESSION_HH

#include <array>
#include <cstdint>
#include <vector>

#include "src/gpu/system.hh"
#include "src/serve/arrival.hh"
#include "src/serve/serve_config.hh"
#include "src/serve/traffic_class.hh"
#include "src/stats/quantile.hh"

namespace netcrafter::serve {

/** Everything a serving run reports. */
struct ServeReport
{
    sim::RunStatus status = sim::RunStatus::Drained;

    /** Requests dispatched (all phases). */
    std::uint64_t injected = 0;

    /** Requests that arrived inside the measurement window. */
    std::uint64_t measured = 0;

    /** Requests retired (equals injected after a drained run). */
    std::uint64_t completed = 0;

    /** Peak simultaneously in-flight requests on any single GPU. */
    std::uint64_t peakInflight = 0;

    /** Measured completions per kilocycle (vs. the offered load). */
    double throughput = 0;

    /** Total cycles including drain. */
    Tick cycles = 0;

    std::array<ClassLatency, kNumTrafficClasses> perClass;
    ClassLatency aggregate;
};

/**
 * One open-loop serving run against @p sys. Construct, call run()
 * once, read the report. The session installs the system's wave-retire
 * hook for the duration of run() and removes it before returning.
 */
class ServeSession
{
  public:
    /** @p scale multiplies class-buffer footprints (not rates). */
    ServeSession(gpu::MultiGpuSystem &sys, const ServeConfig &cfg,
                 double scale = 1.0);

    /**
     * Execute the scenario: warmup + measurement + drain.
     * @p max_cycles bounds the whole run (livelock guard); hitting it
     * surfaces as a non-Drained status in the report.
     */
    ServeReport run(Tick max_cycles = 2'000'000'000ull);

  private:
    /** One injected request, owned by its home GPU's shard. */
    struct Request
    {
        Tick arrival = 0;
        std::uint8_t cls = 0;
        bool measured = false;
    };

    /** One (gpu, class) stream. */
    struct Stream
    {
        ArrivalSequence arrivals;
        GpuId gpu = 0;
        TrafficClass cls = TrafficClass::ReadHeavy;

        /** Stream-local request index: the wave id of the next request. */
        std::uint32_t nextReq = 0;
    };

    /** Shard-local accounting; only GPU g's shard touches index g. */
    struct PerGpu
    {
        std::vector<Request> requests;
        std::array<stats::QuantileSketch, kNumTrafficClasses> sketch;
        std::uint64_t injected = 0;
        std::uint64_t measuredArrivals = 0;
        std::uint64_t completed = 0;
        std::uint64_t inflight = 0;
        std::uint64_t peakInflight = 0;
        std::uint16_t traceLane = 0;
    };

    /** End of arrival generation: warmup + measure. */
    Tick endTick() const
    {
        return cfg_.warmupTicks + cfg_.measureTicks;
    }

    void scheduleArrival(std::size_t stream_idx, Tick when);
    void inject(std::size_t stream_idx, Tick now);
    void onRetire(GpuId g, const gpu::WaveDesc &desc);

    gpu::MultiGpuSystem &sys_;
    ServeConfig cfg_;
    ClassKernels kernels_;
    std::vector<Stream> streams_;
    std::vector<PerGpu> perGpu_;
};

} // namespace netcrafter::serve

#endif // NETCRAFTER_SERVE_SESSION_HH

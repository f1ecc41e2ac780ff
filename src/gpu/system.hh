/**
 * @file
 * The assembled non-uniform bandwidth multi-GPU system (Figure 2): GPUs
 * (CUs + L1s + TLBs + GMMU + L2 + DRAM) on a hierarchical interconnect,
 * with unified virtual memory, LASP placement, and — when enabled — the
 * NetCrafter controllers inside the cluster switches.
 *
 * This is the library's main entry point: construct with a
 * SystemConfig, run() a Workload, then read the statistics accessors.
 *
 * Execution is optionally sharded: with shards > 1 the clusters are
 * partitioned round-robin onto shard engines (sim::shardOfCluster) and
 * advance in conservative barrier-synchronized quanta (see
 * sim/sharded_engine.hh). Everything a GPU owns — chip, RDMA endpoint,
 * outstanding-request table, statistics, priority RNG — lives on its
 * cluster's shard, so the only cross-shard interactions are the
 * latency-bearing inter-cluster wire channels. Results are bit-identical
 * for every shard count; the shard count is an execution detail, not
 * part of the configuration digest.
 */

#ifndef NETCRAFTER_GPU_SYSTEM_HH
#define NETCRAFTER_GPU_SYSTEM_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <vector>

#include "src/config/system_config.hh"
#include "src/flow/fidelity.hh"
#include "src/flow/fidelity_controller.hh"
#include "src/gpu/compute_unit.hh"
#include "src/mem/dram.hh"
#include "src/mem/l2_cache.hh"
#include "src/noc/network.hh"
#include "src/obs/trace.hh"
#include "src/sim/engine.hh"
#include "src/sim/flat_map.hh"
#include "src/sim/ring_queue.hh"
#include "src/sim/sharded_engine.hh"
#include "src/sim/small_fn.hh"
#include "src/stats/stats.hh"
#include "src/vm/gmmu.hh"
#include "src/vm/page_table.hh"
#include "src/vm/tlb.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::obs {
class TraceSink;
} // namespace netcrafter::obs

namespace netcrafter::gpu {

/** A complete multi-GPU system. */
class MultiGpuSystem : public workloads::PlacementDirectory
{
  public:
    /**
     * Build the system. @p shards > 1 partitions the clusters onto that
     * many engine shards; 0 means "caller did not think about it" and
     * runs serially, while a count exceeding numClusters is a
     * configuration error (it would leave shards with no components)
     * and aborts with a clear message. @p exec controls how host
     * threads drive the shards (thread count, work stealing) — an
     * execution detail. Simulation results are identical for every
     * shard count and every execution policy.
     *
     * @p fidelity selects the execution fidelity (src/flow/): Cycle is
     * the classic flit-level path and the default; Flow and Hybrid
     * fuse steady-state network round trips into single analytic
     * events and require shards == 1 (fatal otherwise). Fidelity is an
     * execution property like the shard count: it is not part of the
     * configuration digest, but results may differ slightly from
     * Cycle, so experiment caches key on it separately.
     */
    explicit MultiGpuSystem(const config::SystemConfig &cfg,
                            unsigned shards = 1,
                            const obs::TraceOptions &trace = {},
                            const sim::ExecPolicy &exec = {},
                            flow::Fidelity fidelity =
                                flow::Fidelity::Cycle);
    ~MultiGpuSystem() override;

    /**
     * Execute @p workload to completion (all kernels, barrier between
     * them). @p scale multiplies problem sizes; @p max_cycles aborts a
     * hung simulation.
     */
    void run(workloads::Workload &workload, double scale = 1.0,
             Tick max_cycles = 2'000'000'000ull);

    /**
     * Like run(), but a kernel exceeding @p max_cycles returns the
     * non-Drained status instead of aborting the process. An aborted
     * simulation leaves events in flight; auditTeardown() can census
     * them (and tests do).
     */
    sim::RunStatus runFor(workloads::Workload &workload,
                          double scale = 1.0,
                          Tick max_cycles = 2'000'000'000ull);

    /**
     * Teardown census, run by tests and, when NETCRAFTER_TEARDOWN_CENSUS
     * is set, by the destructor. With several shards it NC_PANICs on
     * anything still pending in the shard event queues or cross-shard
     * ports. After a drained run it also checks, serial systems
     * included, that every MSHR file, TLB and GMMU waiter table, RDMA
     * reassembly table, NetCrafter holding area and outstanding-request
     * table is empty and that every inter-cluster wire channel holds
     * its sink's capacity in credits, and panics naming the first
     * component that is not. Every panic names the tick. A serial run
     * that stopped at its cycle limit is left alone: its in-flight
     * state is expected and safe to destroy.
     */
    void auditTeardown() const;

    /** Trace sink collecting this system's records (null if disabled). */
    obs::TraceSink *traceSink() const { return traceSink_.get(); }

    // PlacementDirectory -----------------------------------------------
    void place(Addr vaddr, GpuId owner) override;

    // Results ------------------------------------------------------------
    /** Total execution time in cycles. */
    Tick cycles() const { return engine_.now(); }

    /** Wavefront memory instructions executed, all GPUs. */
    std::uint64_t totalInstructions() const;

    /** Per-thread instructions (wavefront instructions x 64 lanes). */
    std::uint64_t
    threadInstructions() const
    {
        return totalInstructions() * kWavefrontSize;
    }

    std::uint64_t l1ReadAccesses() const;
    std::uint64_t l1ReadMisses() const;

    /** L1 read misses per kilo wavefront instruction (Figures 16/17). */
    double l1Mpki() const;

    /**
     * Latency of inter-cluster remote reads, cycles (Figures 5/15).
     * Tracked per requester GPU and merged in GPU order, so the value
     * is identical for every shard count.
     */
    stats::Average interClusterReadLatency() const;

    /**
     * Bytes-needed census of inter-cluster read requests, bucketed
     * <=16 / <=32 / <=48 / <64 / 64 (Figure 7).
     */
    stats::Distribution remoteReadBytesNeeded() const;

    const noc::Network &network() const { return *network_; }
    const vm::PageTable &pageTable() const { return pageTable_; }
    const config::SystemConfig &cfg() const { return cfg_; }

    /** Execution fidelity this system was built with. */
    flow::Fidelity fidelity() const { return fidelity_; }

    /** Flow-lane controller (nullptr at cycle fidelity). */
    const flow::FidelityController *flowController() const
    {
        return network_->flowController();
    }

    /** The sharded engine complex driving the system. */
    sim::ShardedEngine &engines() { return engine_; }
    const sim::ShardedEngine &engines() const { return engine_; }

    /** Shard 0's engine (the only shard when running serially). */
    sim::Engine &engine() { return engine_.shard(0); }

    /**
     * The engine of @p g's cluster's shard. Events that touch GPU
     * @p g's state (serve arrivals, for one) must be scheduled here so
     * sharded execution stays race-free and bit-identical.
     */
    sim::Engine &engineFor(GpuId g) { return engineOf(g); }

    // Serving -----------------------------------------------------------
    /**
     * Queue one serving-request wavefront on @p g. Must be called from
     * @p g's shard (an event on engineFor(g)) or outside a run; the
     * wave's serveTag must be non-zero so its retirement reaches the
     * retire hook.
     */
    void dispatchServeWave(GpuId g, const WaveDesc &desc);

    /**
     * Install @p hook, called as hook(gpu, desc) on the GPU's shard
     * whenever one of its wavefronts retires. The serving session uses
     * this to close requests; pass nullptr to remove.
     */
    void
    setWaveRetireHook(std::function<void(GpuId, const WaveDesc &)> hook)
    {
        waveRetireHook_ = std::move(hook);
    }

    /** Shards executing this system (1 = classic serial simulation). */
    unsigned numShards() const { return engine_.numShards(); }

    /** Aggregated GMMU walk count across GPUs. */
    std::uint64_t pageWalks() const;

    /** Mean PTE fetches per walk across GPUs. */
    double meanWalkLength() const;

    /** Remote (cross-GPU) read requests issued. */
    std::uint64_t remoteReads() const;

    /** Local L2-satisfied read requests. */
    std::uint64_t localReads() const;

    /** Requests still awaiting a response (0 after a completed run). */
    std::size_t outstandingRequests() const;

    /**
     * Export every statistic the system tracks into a Registry (names
     * are hierarchical, e.g. "gpu0.l1.readMisses"). Machine-readable
     * exporters and dumpStats both feed from this.
     */
    stats::Registry collectStats() const;

    /** collectStats() dumped in the flat text format. */
    void dumpStats(std::ostream &os) const;

  private:
    struct GpuChip
    {
        std::unique_ptr<mem::Dram> dram;
        std::unique_ptr<mem::L2Cache> l2;
        std::unique_ptr<vm::Tlb> l2Tlb;
        std::unique_ptr<vm::Gmmu> gmmu;
        std::vector<std::unique_ptr<ComputeUnit>> cus;
        sim::RingQueue<WaveDesc> pendingWaves;
    };

    /** An L1 fill or write-through awaiting its response packet. */
    struct FillRecord
    {
        mem::FillRequest req;
        Tick issuedAt = 0;
        bool interCluster = false;
    };

    /**
     * Per-GPU bookkeeping that the GPU's shard thread owns exclusively:
     * the outstanding-request table (responses always return to the
     * requester's shard), remote-read statistics, and the priority RNG.
     * Partitioning this state per GPU — in serial mode too — is what
     * makes sharded execution both race-free and bit-identical.
     */
    struct GpuLocal
    {
        /** Request packet id -> the L1 fill its response completes. */
        sim::FlatMap<std::uint64_t, FillRecord> fills;

        /** Request packet id -> the page walk its response resumes. */
        sim::FlatMap<std::uint64_t, sim::SmallFn> pteFetches;

        stats::Average interReadLatency;
        stats::Distribution remoteReadBytes{
            std::vector<double>{16, 32, 48, 63}};
        std::uint64_t remoteReads = 0;
        std::uint64_t localReads = 0;
        Pcg32 priorityRng;
        std::uint16_t traceLane = 0;
    };

    /** The engine of @p g's cluster's shard. */
    sim::Engine &engineOf(GpuId g)
    {
        return engine_.shard(sim::shardOfCluster(
            cfg_.clusterOf(g), engine_.numShards()));
    }
    const sim::Engine &engineOf(GpuId g) const
    {
        return engine_.shard(sim::shardOfCluster(
            cfg_.clusterOf(g), engine_.numShards()));
    }

    void buildChips();
    void markPriority(noc::Packet &pkt, GpuId requester);
    void handleRemoteRequest(GpuId owner, noc::PacketPtr req);
    void handleResponse(noc::PacketPtr rsp);

    /** Build the response packet answering @p req (owner side). */
    noc::PacketPtr buildResponse(GpuId owner, const noc::Packet &req);

    /**
     * Flow-lane fused round trip: request transit, analytic owner-side
     * L2 service, response transit, one completion event delivering to
     * handleResponse. The caller must have registered the request in
     * its outstanding table first. Returns false — leaving @p pkt
     * untouched — at cycle fidelity or when the request's lane is
     * escalated (Hybrid warmup / instability); the caller then uses
     * the flit path.
     */
    bool tryFusedRoundTrip(GpuId g, noc::PacketPtr &pkt);

    /**
     * Route a response built on the owner's side of an *escalated*
     * (flit-path) request back through the flow lane when its reverse
     * lane qualifies. Returns false — @p rsp untouched — when the
     * response must ride the flit path too.
     */
    bool trySendResponseOnFlowLane(noc::PacketPtr &rsp);
    void l1Fill(GpuId g, const mem::FillRequest &req);
    void fetchPte(GpuId g, const vm::WalkStep &step, sim::SmallFn done);
    mem::SectorMask fullL1Mask() const;
    mem::SectorMask maskForRange(std::uint32_t offset,
                                 std::uint32_t bytes) const;
    void dispatchKernel(const workloads::Kernel &kernel,
                        std::uint64_t kernel_seed);
    void refillCus(GpuId g);

    static unsigned validateShards(const config::SystemConfig &cfg,
                                   unsigned shards);

    config::SystemConfig cfg_;
    flow::Fidelity fidelity_ = flow::Fidelity::Cycle;

    /** How the most recent runFor() ended (gates the drained census). */
    sim::RunStatus lastRunStatus_ = sim::RunStatus::Drained;

    /**
     * Declared before every component so it outlives them all; the
     * worker threads only join in its destructor, by which point all
     * pooled objects have drained back to their owning arenas.
     */
    sim::ShardedEngine engine_;

    /**
     * Owns the per-shard trace buffers the engines point at. Destroyed
     * before engine_, which is safe: worker threads only append inside
     * runWindow(), and no component traces from its destructor.
     */
    std::unique_ptr<obs::TraceSink> traceSink_;

    vm::PageTable pageTable_;
    std::unique_ptr<noc::Network> network_;
    std::vector<GpuChip> chips_;
    std::vector<GpuLocal> gpuLocal_;

    /**
     * Invoked (from the retiring GPU's shard) on every wavefront
     * retirement. Set once before a run and cleared after it, never
     * mutated while shards execute.
     */
    std::function<void(GpuId, const WaveDesc &)> waveRetireHook_;
};

} // namespace netcrafter::gpu

#endif // NETCRAFTER_GPU_SYSTEM_HH

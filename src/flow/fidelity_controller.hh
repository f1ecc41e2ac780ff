/**
 * @file
 * FidelityController: the runtime half of the hybrid-fidelity fast
 * path. The cycle-level simulator spends almost all of its events
 * moving flits hop by hop; for steady-state bulk traffic the same
 * timing is computable analytically. The controller owns that analytic
 * machinery:
 *
 *  - A virtual FIFO server per network leg (GPU up-link, GPU down-link
 *    and each directed inter-cluster wire). A packet occupies a leg for
 *    ceil(flits / rate) cycles behind whatever was already queued, so
 *    backlog serialization — the first-order determinant of runtime on
 *    the 16 GB/s inter-cluster wires — is exact.
 *  - A FlowModel (max-min fair share over the inter-cluster links,
 *    recomputed each epoch from measured byte rates) whose per-link
 *    utilization feeds an M/D/1 queueing-delay estimate for the
 *    fine-grained cross-traffic interleaving a FIFO of whole packets
 *    cannot see, added on top of the FIFO backlog (latency only — the
 *    bandwidth is already consumed by the server slots).
 *  - Packet-level replicas of the NetCrafter mechanisms so ablation
 *    configs keep their ordering: Trimming is applied exactly (same
 *    TrimEngine predicate and byte arithmetic), Sequencing lets
 *    latency-critical packets bypass the queue waits, and Stitching is
 *    approximated by a per-link padding pool with pooling-window
 *    expiry (an absorbed single-flit packet rides a recent parent's
 *    padding and puts zero flits on the wire).
 *  - Per-(link, epoch) lane classification for Hybrid mode: every lane
 *    starts on the cycle-accurate flit path, hands over to the flow
 *    model after `kDefaultStableEpochs` epochs of stable measured
 *    rate, and escalates back the moment the rate swings. Conversion is
 *    deterministic and happens at epoch boundaries only.
 *  - Census crediting: each flow-lane packet synthesizes exactly the
 *    flits it would have produced into the inter-cluster TrafficMonitor
 *    and WireChannel counters, so figure pipelines read the same
 *    headline fields regardless of fidelity.
 *
 * Conservation is tracked explicitly: every packet and byte injected
 * into the flow lane must be delivered (flowPacketsInjected ==
 * flowPacketsDelivered after a drained run) — the invariant the
 * validation harness and unit tests gate on.
 */

#ifndef NETCRAFTER_FLOW_FIDELITY_CONTROLLER_HH
#define NETCRAFTER_FLOW_FIDELITY_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "src/config/system_config.hh"
#include "src/core/trim_engine.hh"
#include "src/flow/fidelity.hh"
#include "src/flow/flow_model.hh"
#include "src/noc/packet.hh"

namespace netcrafter::noc {
class TrafficMonitor;
class WireChannel;
} // namespace netcrafter::noc

namespace netcrafter::flow {

/** Aggregate diagnostics exported into RunResult. */
struct FlowLaneStats
{
    std::uint64_t flowPackets = 0;
    std::uint64_t cyclePackets = 0;
    std::uint64_t flowPacketsDelivered = 0;
    std::uint64_t flowBytesInjected = 0;
    std::uint64_t flowBytesDelivered = 0;
    std::uint64_t epochsClosed = 0;
    std::uint64_t laneActivations = 0;
    std::uint64_t laneEscalations = 0;
    std::uint64_t stitchedPieces = 0;
    std::uint64_t md1WaitTicks = 0;
    std::uint64_t fifoWaitTicks = 0;
    std::uint64_t recomputes = 0;
};

class FidelityController
{
  public:
    /** Epoch length for rate measurement and lane classification. */
    static constexpr Tick kDefaultEpochTicks = 256;

    /** Stable epochs required before a lane joins the flow model. */
    static constexpr std::uint32_t kDefaultStableEpochs = 4;

    FidelityController(const config::SystemConfig &cfg,
                       Fidelity fidelity);

    Fidelity fidelity() const { return fidelity_; }

    /**
     * Attach the census sinks of the directed inter-cluster link
     * @p from -> @p to. Flow-lane packets crossing that link credit
     * synthesized flits into both. Optional: without sinks the
     * controller still times packets, it just cannot credit them.
     */
    void attachInterLink(ClusterId from, ClusterId to,
                         noc::TrafficMonitor *monitor,
                         noc::WireChannel *channel);

    /**
     * Decide the lane for a packet entering the network at @p now and
     * record its bytes in the source lane's epoch census. True: the
     * caller must route the packet through the flow lane (transit());
     * false: it takes the cycle-accurate flit path, and the caller
     * reports the eventual response via noteCyclePacket() like any
     * other cycle-lane packet.
     */
    bool classify(const noc::Packet &pkt, Tick now);

    /**
     * Epoch bookkeeping for a cycle-lane packet (Hybrid warmup and
     * escalated lanes): measured rates must include both lanes or the
     * hand-over thresholds would starve.
     */
    void noteCyclePacket(const noc::Packet &pkt, Tick now);

    /**
     * Send @p pkt through the flow lane: applies Trimming, the stitch
     * approximation and Sequencing, walks the virtual servers of every
     * leg on the path, credits the census, and returns the absolute
     * tick at which the packet is fully delivered at pkt.dst. @p when
     * is the injection tick (>= now; responses of fused round trips
     * inject in the future, at the owner-side data-ready tick).
     */
    Tick transit(noc::Packet &pkt, Tick when);

    /** Record delivery (called from the completion event). */
    void noteDelivered(const noc::Packet &pkt);

    /** Trim census accumulated by the flow lane (per-run totals). */
    const core::TrimStats &trimStats() const
    {
        return trimEngine_.stats();
    }

    const FlowLaneStats &stats() const;

    /** The epoch-driven max-min model (tests and diagnostics). */
    const FlowModel &model() const { return model_; }

  private:
    /**
     * One virtual FIFO server: a leg's bandwidth serialization, in
     * flit-slot units (cycle * flitsPerCycle) so a leg admits its full
     * per-cycle flit budget — eight 1-flit requests share one cycle on
     * an 8-flit/cycle GPU link, exactly as the flit path pipelines
     * them. Tracking whole cycles per packet instead would serialize
     * small packets 8x and blow up simulated time.
     */
    struct LegServer
    {
        std::uint64_t nextFreeSlots = 0;
        std::uint32_t flitsPerCycle = 1;
    };

    /** Donated flit padding awaiting a stitch candidate. */
    struct PadDonor
    {
        Tick expires = 0;
        std::uint32_t freeBytes = 0;
    };

    /** Directed cluster->cluster lane state (Hybrid classification). */
    struct Lane
    {
        Tick epochStart = 0;
        std::uint64_t epochBytes = 0;
        Rate lastRate = 0;
        std::uint32_t stableEpochs = 0;
        bool flowLane = false;
        FlowModel::FlowId flow = 0;
        bool hasFlow = false;
    };

    /** Per directed inter-cluster link: census sinks + mechanisms. */
    struct InterLeg
    {
        LegServer server;
        noc::TrafficMonitor *monitor = nullptr;
        noc::WireChannel *channel = nullptr;
        FlowModel::LinkId link = 0;
        std::deque<PadDonor> padPool;
    };

    Lane &laneOf(ClusterId from, ClusterId to);
    InterLeg &interLegOf(ClusterId from, ClusterId to);
    void advanceEpochs(Lane &lane, Tick now);

    /**
     * Occupy @p server from @p arrival for @p flits flits; returns the
     * departure tick. Latency-critical packets bypass the FIFO wait
     * (Sequencing) but still consume bandwidth.
     */
    Tick serve(LegServer &server, Tick arrival, std::uint32_t flits,
               bool bypass_queue);

    const config::SystemConfig &cfg_;
    Fidelity fidelity_;

    FlowModel model_;

    std::vector<LegServer> upLink_;   // per GPU
    std::vector<LegServer> downLink_; // per GPU
    std::vector<InterLeg> interLegs_; // from * numClusters + to
    std::vector<Lane> lanes_;         // from * numClusters + to

    core::TrimEngine trimEngine_;
    mutable FlowLaneStats stats_;
};

} // namespace netcrafter::flow

#endif // NETCRAFTER_FLOW_FIDELITY_CONTROLLER_HH

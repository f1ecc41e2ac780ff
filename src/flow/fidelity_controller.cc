#include "src/flow/fidelity_controller.hh"

#include <algorithm>

#include "src/noc/flit.hh"
#include "src/noc/traffic_monitor.hh"
#include "src/noc/wire_channel.hh"
#include "src/obs/progress_board.hh"
#include "src/sim/engine.hh"
#include "src/sim/logging.hh"

namespace netcrafter::flow {

namespace {

/** Stitch-residency window when flit pooling is off: candidates only
 *  meet parents still queued in the Cluster Queue, a few cycles deep. */
constexpr Tick kUnpooledStitchWindow = 8;

/** Rate slack treated as "no change" when judging lane stability:
 *  a quarter byte per cycle, so idle lanes settle immediately. */
constexpr Rate kStableSlack = kRateOne / 4;

} // namespace

FidelityController::FidelityController(const config::SystemConfig &cfg,
                                       Fidelity fidelity)
    : cfg_(cfg), fidelity_(fidelity),
      trimEngine_(cfg.netcrafter.trimGranularity)
{
    NC_ASSERT(fidelity != Fidelity::Cycle,
              "cycle fidelity needs no controller");
    const std::uint32_t num_gpus = cfg_.numGpus();
    const std::uint32_t clusters = cfg_.numClusters;
    upLink_.resize(num_gpus);
    downLink_.resize(num_gpus);
    for (GpuId g = 0; g < num_gpus; ++g) {
        upLink_[g].flitsPerCycle = cfg_.intraFlitsPerCycle();
        downLink_[g].flitsPerCycle = cfg_.intraFlitsPerCycle();
    }
    interLegs_.resize(static_cast<std::size_t>(clusters) * clusters);
    lanes_.resize(static_cast<std::size_t>(clusters) * clusters);
    for (ClusterId from = 0; from < clusters; ++from) {
        for (ClusterId to = 0; to < clusters; ++to) {
            Lane &lane = laneOf(from, to);
            // Flow mode rides the model from tick 0; Hybrid warms up
            // on the cycle-accurate path until the lane stabilizes.
            lane.flowLane = fidelity_ == Fidelity::Flow;
            if (from == to) {
                lane.flow = model_.addFlow({}, 0);
                lane.hasFlow = true;
                continue;
            }
            InterLeg &leg = interLegOf(from, to);
            leg.server.flitsPerCycle = cfg_.interFlitsPerCycle();
            leg.link = model_.addLink(
                rateQ16(static_cast<std::uint64_t>(
                    cfg_.interFlitsPerCycle() * cfg_.flitBytes)));
            lane.flow = model_.addFlow({leg.link}, 0);
            lane.hasFlow = true;
        }
    }
}

FidelityController::Lane &
FidelityController::laneOf(ClusterId from, ClusterId to)
{
    return lanes_[static_cast<std::size_t>(from) * cfg_.numClusters +
                  to];
}

FidelityController::InterLeg &
FidelityController::interLegOf(ClusterId from, ClusterId to)
{
    return interLegs_[static_cast<std::size_t>(from) *
                          cfg_.numClusters +
                      to];
}

void
FidelityController::attachInterLink(ClusterId from, ClusterId to,
                                    noc::TrafficMonitor *monitor,
                                    noc::WireChannel *channel)
{
    NC_ASSERT(from != to, "no self inter-cluster link");
    InterLeg &leg = interLegOf(from, to);
    leg.monitor = monitor;
    leg.channel = channel;
}

void
FidelityController::advanceEpochs(Lane &lane, Tick now)
{
    // Response transits are future-dated past the request's service
    // time, so observation times interleave non-monotonically; bytes
    // landing before the lane's current epoch simply count into it.
    if (now < lane.epochStart)
        return;
    while (now - lane.epochStart >= kDefaultEpochTicks) {
        const Rate rate = (lane.epochBytes << 16) / kDefaultEpochTicks;
        lane.epochBytes = 0;
        ++stats_.epochsClosed;

        const Rate prev = lane.lastRate;
        const Rate diff = rate > prev ? rate - prev : prev - rate;
        const bool stable = diff <= std::max(prev / 16, kStableSlack);
        lane.lastRate = rate;
        if (lane.hasFlow) {
            model_.setDemand(lane.flow, rate);
            model_.recompute();
        }

        if (stable) {
            if (lane.stableEpochs < kDefaultStableEpochs)
                ++lane.stableEpochs;
            if (!lane.flowLane && fidelity_ == Fidelity::Hybrid &&
                lane.stableEpochs >= kDefaultStableEpochs) {
                lane.flowLane = true;
                ++stats_.laneActivations;
                // Live-telemetry gauge: hybrid lanes currently riding
                // the flow path. Flow fidelity is single-shard, so the
                // current engine's cell is the only writer.
                if (sim::Engine *e = sim::Engine::current())
                    if (obs::ShardCell *cell = e->progressCell())
                        cell->flowLanesActive.fetch_add(
                            1, std::memory_order_relaxed);
            }
        } else {
            lane.stableEpochs = 0;
            if (lane.flowLane && fidelity_ == Fidelity::Hybrid) {
                // The lane left steady state: new packets go back to
                // the flit path at this epoch boundary. In-flight flow
                // packets complete on their already-computed schedule.
                lane.flowLane = false;
                ++stats_.laneEscalations;
                if (sim::Engine *e = sim::Engine::current())
                    if (obs::ShardCell *cell = e->progressCell())
                        cell->flowLanesActive.fetch_sub(
                            1, std::memory_order_relaxed);
            }
        }

        lane.epochStart += kDefaultEpochTicks;
        if (now - lane.epochStart >= 4 * kDefaultEpochTicks) {
            // Long idle gap: one zero-rate close settles the lane,
            // then jump to the epoch containing `now` (still aligned
            // to epoch multiples) instead of looping per epoch.
            lane.lastRate = 0;
            if (lane.stableEpochs < kDefaultStableEpochs)
                ++lane.stableEpochs;
            if (lane.hasFlow) {
                model_.setDemand(lane.flow, 0);
                model_.recompute();
            }
            ++stats_.epochsClosed;
            lane.epochStart =
                now - (now - lane.epochStart) % kDefaultEpochTicks;
        }
    }
}

bool
FidelityController::classify(const noc::Packet &pkt, Tick now)
{
    Lane &lane =
        laneOf(cfg_.clusterOf(pkt.src), cfg_.clusterOf(pkt.dst));
    advanceEpochs(lane, now);
    if (fidelity_ == Fidelity::Flow || lane.flowLane)
        return true; // transit() accounts the lane bytes
    lane.epochBytes += pkt.totalBytes();
    ++stats_.cyclePackets;
    return false;
}

void
FidelityController::noteCyclePacket(const noc::Packet &pkt, Tick now)
{
    Lane &lane =
        laneOf(cfg_.clusterOf(pkt.src), cfg_.clusterOf(pkt.dst));
    advanceEpochs(lane, now);
    lane.epochBytes += pkt.totalBytes();
    ++stats_.cyclePackets;
}

Tick
FidelityController::serve(LegServer &server, Tick arrival,
                          std::uint32_t flits, bool bypass_queue)
{
    // Fluid pipe in flit-slot units: the leg streams flitsPerCycle
    // flits each cycle, and a packet departs when its last flit has
    // streamed behind the backlog.
    const std::uint64_t arrival_slots =
        static_cast<std::uint64_t>(arrival) * server.flitsPerCycle;
    std::uint64_t start = arrival_slots;
    if (!bypass_queue && server.nextFreeSlots > start) {
        stats_.fifoWaitTicks +=
            (server.nextFreeSlots - start) / server.flitsPerCycle;
        start = server.nextFreeSlots;
    }
    // Bandwidth is consumed either way; a bypassing packet preempts
    // the queue but still occupies the wire.
    server.nextFreeSlots = std::max(server.nextFreeSlots, start) +
                           std::max<std::uint32_t>(flits, 1);
    return divCeil(start + std::max<std::uint32_t>(flits, 1),
                   server.flitsPerCycle);
}

Tick
FidelityController::transit(noc::Packet &pkt, Tick when)
{
    const ClusterId from = cfg_.clusterOf(pkt.src);
    const ClusterId to = cfg_.clusterOf(pkt.dst);
    pkt.interCluster = from != to;
    // Lane demand counts the pre-trim offered load, like the flit
    // path's Cluster Queue does.
    Lane &lane = laneOf(from, to);
    advanceEpochs(lane, when);
    lane.epochBytes += pkt.totalBytes();
    const std::uint32_t flit_bytes = cfg_.flitBytes;
    const bool sequencing =
        cfg_.netcrafter.sequencing != config::SequencingMode::Off;
    const bool bypass = sequencing && pkt.latencyCritical;

    // GPU -> cluster switch, then the switch pipeline.
    Tick t = serve(upLink_[pkt.src], when,
                   noc::flitsForBytes(pkt.totalBytes(), flit_bytes),
                   false);
    t += cfg_.switchLatency;

    if (pkt.interCluster) {
        InterLeg &leg = interLegOf(from, to);

        // Trimming runs at the egress port, exactly as in the flit
        // path: same predicate, same byte arithmetic, same stats.
        if (cfg_.netcrafter.trimming && trimEngine_.shouldTrim(pkt))
            trimEngine_.trim(pkt);

        std::uint32_t wire_flits =
            noc::flitsForBytes(pkt.totalBytes(), flit_bytes);

        // Stitch approximation: a single-flit packet may ride the
        // padding a recent flow packet left on the wire. Donors expire
        // after the pooling window (or a short Cluster-Queue residency
        // when pooling is off).
        bool absorbed = false;
        if (cfg_.netcrafter.stitching) {
            while (!leg.padPool.empty() &&
                   leg.padPool.front().expires <= t)
                leg.padPool.pop_front();
            const bool pool_exempt = cfg_.netcrafter.selectivePooling &&
                                     pkt.latencyCritical;
            if (wire_flits == 1 && !pool_exempt) {
                for (PadDonor &donor : leg.padPool) {
                    if (donor.freeBytes >= pkt.totalBytes()) {
                        donor.freeBytes -= pkt.totalBytes();
                        absorbed = true;
                        ++stats_.stitchedPieces;
                        break;
                    }
                }
            }
            if (!absorbed) {
                const std::uint32_t free =
                    wire_flits * flit_bytes - pkt.totalBytes();
                if (free > 0) {
                    const Tick window =
                        cfg_.netcrafter.flitPooling
                            ? cfg_.netcrafter.poolingWindow
                            : kUnpooledStitchWindow;
                    leg.padPool.push_back(PadDonor{t + window, free});
                    if (leg.padPool.size() >
                        cfg_.netcrafter.stitchSearchDepth)
                        leg.padPool.pop_front();
                }
            }
        }

        if (absorbed) {
            // Rides a parent flit already scheduled: flight time only.
            t += cfg_.interLinkLatency;
        } else {
            const Tick occupancy = std::max<Tick>(
                1, divCeil(wire_flits, leg.server.flitsPerCycle));
            t = serve(leg.server, t, wire_flits, bypass);
            if (!bypass) {
                // The FIFO backlog captures this leg's own serialized
                // queue; the M/D/1 term adds the contention the packet
                // FIFO cannot see — cross-traffic interleaving at the
                // switch crossbar and the burstiness of closed-loop
                // arrivals. Latency only: the bandwidth is already
                // accounted by the server slots above.
                const Tick md1 = FlowModel::md1WaitTicks(
                    model_.linkUtilizationQ16(leg.link), occupancy);
                stats_.md1WaitTicks += md1;
                t += md1;
            }
            t += cfg_.interLinkLatency;
        }

        // Census: synthesize exactly the flits the packet would have
        // put on this wire.
        const std::uint32_t credited = absorbed ? 0 : wire_flits;
        if (leg.monitor) {
            leg.monitor->observeFlowPacket(pkt, credited, flit_bytes);
        }
        if (leg.channel) {
            leg.channel->creditFlowTraffic(
                credited,
                static_cast<std::uint64_t>(credited) * flit_bytes,
                pkt.totalBytes(), t);
        }

        t += cfg_.switchLatency; // destination cluster switch
    }

    // Cluster switch -> destination GPU.
    t = serve(downLink_[pkt.dst], t,
              noc::flitsForBytes(pkt.totalBytes(), flit_bytes), false);

    ++stats_.flowPackets;
    stats_.flowBytesInjected += pkt.totalBytes();
    return t;
}

void
FidelityController::noteDelivered(const noc::Packet &pkt)
{
    ++stats_.flowPacketsDelivered;
    stats_.flowBytesDelivered += pkt.totalBytes();
}

const FlowLaneStats &
FidelityController::stats() const
{
    stats_.recomputes = model_.recomputes();
    return stats_;
}

} // namespace netcrafter::flow

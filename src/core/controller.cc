#include "src/core/controller.hh"

#include <algorithm>

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::core {

NetCrafterController::NetCrafterController(
    sim::Engine &engine, std::string name,
    const config::NetCrafterConfig &cfg,
    std::function<ClusterId(GpuId)> cluster_of,
    std::vector<ClusterId> dst_clusters, noc::FlitBuffer &out,
    std::uint32_t egress_rate, std::function<void()> wake_switch)
    : SimObject(engine, std::move(name)), cfg_(cfg),
      clusterOf_(std::move(cluster_of)), out_(out),
      egressRate_(egress_rate), wakeSwitch_(std::move(wake_switch)),
      trim_(cfg.trimGranularity),
      cq_(cfg.clusterQueueEntries, std::move(dst_clusters)),
      pumpWake_(engine, this)
{
    // Space freed on the inter-cluster link's source buffer lets the
    // controller eject more flits.
    out_.setOnPop([this] { schedulePump(); });
    traceLane_ = obs::internLane(engine, this->name());
}

bool
NetCrafterController::tryAccept(noc::FlitPtr flit)
{
    const ClusterId dst = clusterOf_(flit->pkt->dst);
    // Admission control covers both the CQ and the trim holding area;
    // trimming can only shrink a held packet, so reserving one entry per
    // accepted flit guarantees enqueue() will always find space.
    const std::size_t held = pendingPerDst_[dst];
    if (cq_.occupancy(dst) + held >= cq_.budgetPerDst())
        return false;

    ++stats_.flitsAccepted;
    flit->pkt->interCluster = true;

    if (flit->numFlits == 1) {
        enqueue(std::move(flit));
        return true;
    }

    // Multi-flit packet: hold flits until the tail arrives so the Trim
    // Engine can operate at packet granularity (Figure 13, step 4b).
    noc::PacketPtr pkt = flit->pkt;
    const bool is_tail = flit->isTail();
    pending_.add(pkt->id, std::move(flit));
    ++pendingPerDst_[dst];
    if (is_tail)
        completePacket(pkt, pending_.take(pkt->id));
    return true;
}

void
NetCrafterController::completePacket(const noc::PacketPtr &pkt,
                                     HeldFlits::Chain flits)
{
    const ClusterId dst = clusterOf_(pkt->dst);
    noc::FlitPtr flit;
    if (cfg_.trimming && trim_.shouldTrim(*pkt)) {
        std::size_t count = 0;
        std::uint32_t flit_bytes = 0;
        while (pending_.pop(flits, flit)) {
            flit_bytes = flit->capacity;
            ++count;
        }
        flit = nullptr;
        pendingPerDst_[dst] -= count;
        const std::uint32_t bytes_before = pkt->totalBytes();
        trim_.trim(*pkt);
        obs::tracepoint(engine(), obs::TraceLevel::Links,
                        obs::TraceKind::CtrlDecision,
                        obs::TraceStage::CtrlTrim, traceLane_, pkt->id,
                        bytes_before, pkt->totalBytes());
        // Re-segment the now-smaller packet; the discarded flits are
        // never transmitted on the lower-bandwidth network.
        noc::segmentPacket(pkt, flit_bytes, [this](noc::FlitPtr f) {
            enqueue(std::move(f));
        });
        return;
    }
    while (pending_.pop(flits, flit)) {
        --pendingPerDst_[dst];
        enqueue(std::move(flit));
    }
}

void
NetCrafterController::enqueue(noc::FlitPtr flit)
{
    const ClusterId dst = clusterOf_(flit->pkt->dst);
    cq_.push(dst, std::move(flit));
    schedulePump();
}

void
NetCrafterController::schedulePump()
{
    pumpWake_.notify();
}

void
NetCrafterController::pump()
{
    pumpWake_.clearPending();
    const Tick t = now();
    if (t == lastPumpTick_)
        return; // per-cycle egress budget already spent this tick
    lastPumpTick_ = t;

    const bool sequencing =
        cfg_.sequencing != config::SequencingMode::Off;
    std::uint32_t budget = egressRate_;
    bool freed_space = false;
    while (budget > 0 && !out_.full()) {
        auto pick = cq_.pickNext(t, sequencing);
        if (!pick)
            break;

        // The parent flit under consideration for ejection. Copy the
        // shared pointer: candidate extraction mutates the deque the
        // front reference would point into.
        noc::FlitPtr parent = cq_.front(*pick);
        const bool was_pooled = parent->pooledOnce;

        if (cfg_.stitching) {
            // Absorb candidates while free bytes remain (step 4h allows
            // re-stitching an already-stitched parent).
            while (parent->freeBytes() >= noc::kPartialStitchMetaBytes +
                                              1) {
                noc::FlitPtr cand = cq_.takeCandidate(
                    pick->dst, parent->freeBytes(),
                    cfg_.stitchSearchDepth, parent.get());
                if (!cand)
                    break;
                const std::uint32_t cand_bytes = cand->usedBytes();
                const std::uint32_t cand_pkt =
                    cand->pkt != nullptr
                        ? static_cast<std::uint32_t>(cand->pkt->id)
                        : 0;
                stitch_.stitch(*parent, std::move(cand));
                obs::tracepoint(
                    engine(), obs::TraceLevel::Links,
                    obs::TraceKind::CtrlDecision,
                    obs::TraceStage::CtrlStitch, traceLane_,
                    parent->pkt != nullptr ? parent->pkt->id : 0,
                    cand_bytes, cand_pkt);
                freed_space = true;
            }
        }

        // Pooling pays off only when a data parent has room for a
        // meaningful candidate: mostly-empty flits (>= half padded,
        // e.g. response tails and write acks) are worth waiting for,
        // while deferring a 25%-padded request for a rare 4-byte
        // candidate costs latency for almost no bandwidth. Flits in the
        // latency-critical partition are pooled whenever they have any
        // free bytes under *non-selective* pooling — the behaviour
        // whose cost Figure 18 exposes and Selective Flit Pooling
        // (Optimization II) removes.
        const bool ptw_partition = pick->cls == CqClass::Ptw;
        const bool worth_pooling =
            ptw_partition ? parent->freeBytes() > 0
                          : parent->freeBytes() >= parent->capacity / 2;
        if (cfg_.stitching && cfg_.flitPooling && !parent->isStitched() &&
            !parent->pooledOnce && worth_pooling) {
            const bool exempt = cfg_.selectivePooling && ptw_partition;
            const bool sequenced_ptw = sequencing && ptw_partition;
            // Work-conserving: defer only while the port has other work,
            // so pooling never idles the lower-bandwidth link.
            const bool other_work = cq_.anyOtherServable(*pick, t);
            if (!exempt && !sequenced_ptw && other_work) {
                // Defer ejection hoping a candidate arrives (Opt. I).
                parent->pooledOnce = true;
                cq_.blockUntil(*pick, t + cfg_.poolingWindow);
                ++stats_.poolingArms;
                obs::tracepoint(
                    engine(), obs::TraceLevel::Links,
                    obs::TraceKind::CtrlDecision,
                    obs::TraceStage::CtrlArm, traceLane_,
                    parent->pkt != nullptr ? parent->pkt->id : 0,
                    parent->freeBytes(),
                    static_cast<std::uint32_t>(pick->cls));
                ++stats_.armsByClass[static_cast<std::size_t>(
                    pick->cls)];
                stats_.occupancyAtArmSum += cq_.occupancy(pick->dst);
                continue; // another partition may still eject this cycle
            }
        }

        if (was_pooled && parent->isStitched())
            ++stats_.poolingStitchHits;

        noc::FlitPtr flit = cq_.pop(*pick);
        NC_ASSERT(flit.get() == parent.get(),
                  "CQ front changed under the stitching engine");
        freed_space = true;
        ++stats_.flitsEjected;
        obs::tracepoint(
            engine(), obs::TraceLevel::Links,
            obs::TraceKind::CtrlDecision, obs::TraceStage::CtrlEject,
            traceLane_,
            parent->pkt != nullptr ? parent->pkt->id : 0,
            obs::packFlitBytes(parent->capacity, parent->usedBytes()),
            obs::packFlitSeq(
                static_cast<std::uint32_t>(parent->stitched.size()),
                parent->seq));
        out_.tryPush(std::move(flit));
        --budget;
    }

    if (freed_space && wakeSwitch_)
        wakeSwitch_();

    // Soft pooling timers guarantee a non-empty queue always has a
    // servable partition, so keep pumping until drained. (Probing
    // pickNext here instead would advance the round-robin pointer and
    // starve the probed partition.)
    if (!cq_.empty())
        schedulePump();
}

} // namespace netcrafter::core

#include "src/noc/rdma.hh"

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::noc {

RdmaEngine::RdmaEngine(sim::Engine &engine, std::string name, GpuId gpu,
                       std::uint32_t flit_bytes,
                       std::size_t buffer_entries)
    : SimObject(engine, std::move(name)), gpu_(gpu),
      flitBytes_(flit_bytes), tx_(buffer_entries), rx_(buffer_entries),
      txWake_(engine, this), rxWake_(engine, this)
{
    // Space freed in the TX buffer lets queued flits advance.
    tx_.setOnPop([this] {
        if (!sendQueue_.empty())
            txWake_.notify();
    });
    // Arriving flits trigger reassembly.
    rx_.setOnPush([this] { rxWake_.notify(); });
    traceLane_ = obs::internLane(engine, this->name());
}

void
RdmaEngine::sendPacket(PacketPtr pkt)
{
    pkt->injectedAt = now();
    ++packetsSent_;
    obs::tracepoint(engine(), obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage, obs::TraceStage::RdmaInject,
                    traceLane_, pkt->id, pkt->totalBytes(),
                    static_cast<std::uint32_t>(pkt->type));
    segmentPacket(pkt, flitBytes_, [this](FlitPtr flit) {
        sendQueue_.push_back(std::move(flit));
    });
    txWake_.notify();
}

void
RdmaEngine::pumpTx()
{
    txWake_.clearPending();
    while (!sendQueue_.empty() && !tx_.full()) {
        tx_.tryPush(std::move(sendQueue_.front()));
        sendQueue_.pop_front();
    }
    // A full TX buffer re-arms via the pop hook.
}

void
RdmaEngine::pumpRx()
{
    rxWake_.clearPending();
    while (!rx_.empty()) {
        FlitPtr flit = rx_.pop();
        NC_ASSERT(!flit->isStitched(),
                  name(), ": stitched flit reached endpoint; the cluster "
                          "switch should have un-stitched it");
        PacketPtr pkt = flit->pkt;
        NC_ASSERT(pkt->dst == gpu_, name(), ": misrouted flit for GPU ",
                  pkt->dst);
        std::uint32_t &got = reassembly_[pkt->id];
        got += flit->occupiedBytes;
        NC_ASSERT(got <= pkt->totalBytes(), "reassembly overflow for ",
                  pkt->toString());
        if (got == pkt->totalBytes()) {
            reassembly_.erase(pkt->id);
            ++packetsReceived_;
            obs::tracepoint(engine(), obs::TraceLevel::Packets,
                            obs::TraceKind::PktStage,
                            obs::TraceStage::RdmaDeliver, traceLane_,
                            pkt->id, pkt->totalBytes(),
                            static_cast<std::uint32_t>(pkt->type));
            if (isResponseType(pkt->type)) {
                NC_ASSERT(responseHandler_ != nullptr,
                          name(), ": no response handler");
                responseHandler_(std::move(pkt));
            } else {
                NC_ASSERT(requestHandler_ != nullptr,
                          name(), ": no request handler");
                requestHandler_(std::move(pkt));
            }
        }
    }
}

} // namespace netcrafter::noc

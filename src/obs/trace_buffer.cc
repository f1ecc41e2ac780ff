#include "src/obs/trace_buffer.hh"

#include <algorithm>

#include "src/sim/logging.hh"

namespace netcrafter::obs {

const char *
traceStageName(TraceStage stage)
{
    switch (stage) {
      case TraceStage::Coalesce: return "coalesce";
      case TraceStage::L1Lookup: return "l1Lookup";
      case TraceStage::L1Miss: return "l1Miss";
      case TraceStage::TlbLookup: return "tlbLookup";
      case TraceStage::TlbMiss: return "tlbMiss";
      case TraceStage::WalkStart: return "walkStart";
      case TraceStage::WalkEnd: return "walkEnd";
      case TraceStage::RdmaInject: return "rdmaInject";
      case TraceStage::RdmaDeliver: return "rdmaDeliver";
      case TraceStage::SwitchRoute: return "switchRoute";
      case TraceStage::WireDepart: return "wireDepart";
      case TraceStage::WireArrive: return "wireArrive";
      case TraceStage::L2Lookup: return "l2Lookup";
      case TraceStage::L2Miss: return "l2Miss";
      case TraceStage::DramAccess: return "dramAccess";
      case TraceStage::Complete: return "complete";
      case TraceStage::CtrlArm: return "ctrlArm";
      case TraceStage::CtrlEject: return "ctrlEject";
      case TraceStage::CtrlStitch: return "ctrlStitch";
      case TraceStage::CtrlTrim: return "ctrlTrim";
      case TraceStage::ServeArrive: return "serveArrive";
      case TraceStage::ServeRetire: return "serveRetire";
      case TraceStage::FlowTransit: return "flowTransit";
      case TraceStage::FlowDeliver: return "flowDeliver";
    }
    return "(invalid)";
}

TraceLevel
TraceOptions::parseLevel(const std::string &text, const char *what)
{
    if (text == "off")
        return TraceLevel::Off;
    if (text == "links")
        return TraceLevel::Links;
    if (text == "packets")
        return TraceLevel::Packets;
    if (text == "full")
        return TraceLevel::Full;
    NC_FATAL(what ? what : "", what ? ": " : "", "unknown trace level '",
             text, "' (expected off|links|packets|full)");
}

const char *
TraceOptions::levelName(TraceLevel level)
{
    switch (level) {
      case TraceLevel::Off: return "off";
      case TraceLevel::Links: return "links";
      case TraceLevel::Packets: return "packets";
      case TraceLevel::Full: return "full";
    }
    return "(invalid)";
}

void
TraceBuffer::clear()
{
    records_.clear();
    dropped_ = 0;
}

void
TraceBuffer::noteDrop()
{
    ++dropped_;
    NC_WARN_ONCE("trace buffer full (cap ", cap_,
                 " records/shard): dropping records; raise "
                 "TraceOptions::bufferCap or lower the trace level. "
                 "Byte-identity across shard counts no longer holds for "
                 "this run");
}

TraceSink::TraceSink(const TraceOptions &opts, unsigned shards)
    : opts_(opts)
{
    buffers_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
        buffers_.push_back(
            std::make_unique<TraceBuffer>(opts_.level, opts_.bufferCap));
    }
    laneNames_.push_back("(unknown)"); // lane 0: tracing-off sentinel
}

std::uint16_t
TraceSink::internLane(const std::string &name)
{
    const auto it = laneIds_.find(name);
    if (it != laneIds_.end())
        return it->second;
    NC_ASSERT(laneNames_.size() < 0xffff, "lane table overflow");
    const auto id = static_cast<std::uint16_t>(laneNames_.size());
    laneNames_.push_back(name);
    laneIds_.emplace(name, id);
    return id;
}

std::vector<TraceRecord>
TraceSink::merged() const
{
    std::vector<TraceRecord> out;
    out.reserve(totalRecords());
    for (const auto &buf : buffers_)
        out.insert(out.end(), buf->records().begin(), buf->records().end());
    // Records comparing equal are byte-identical, so an unstable sort
    // still yields one canonical stream for every shard count.
    std::sort(out.begin(), out.end());
    return out;
}

std::uint64_t
TraceSink::totalRecords() const
{
    std::uint64_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->records().size();
    return n;
}

std::uint64_t
TraceSink::totalDropped() const
{
    std::uint64_t n = 0;
    for (const auto &buf : buffers_)
        n += buf->dropped();
    return n;
}

std::uint16_t
internLane(sim::Engine &engine, const std::string &name)
{
    TraceSink *sink = engine.traceSink();
    return sink != nullptr ? sink->internLane(name) : 0;
}

} // namespace netcrafter::obs

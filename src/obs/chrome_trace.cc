#include "src/obs/chrome_trace.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <tuple>

#include "src/sim/sharded_engine.hh"

namespace netcrafter::obs {

namespace {

std::string
num(double v)
{
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

/** Sim ticks (1 cycle = 1 ns) to Chrome-trace microseconds. */
double
tickToUs(Tick tick)
{
    return static_cast<double>(tick) / 1000.0;
}

} // namespace

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
ChromeTraceWriter::processName(int pid, const std::string &name)
{
    Event ev;
    ev.pid = pid;
    ev.ph = 'M';
    ev.name = "process_name";
    ev.argsJson = "{\"name\": \"" + jsonEscape(name) + "\"}";
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::threadName(int pid, int tid, const std::string &name)
{
    Event ev;
    ev.pid = pid;
    ev.tid = tid;
    ev.ph = 'M';
    ev.name = "thread_name";
    ev.argsJson = "{\"name\": \"" + jsonEscape(name) + "\"}";
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::slice(int pid, int tid, const std::string &name,
                         double ts_us, double dur_us,
                         const std::string &args_json)
{
    Event ev;
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = ts_us;
    ev.dur = dur_us;
    ev.ph = 'X';
    ev.name = name;
    ev.argsJson = args_json;
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::counter(int pid, const std::string &track, double ts_us,
                           const std::string &series, double value)
{
    Event ev;
    ev.pid = pid;
    ev.ts = ts_us;
    ev.ph = 'C';
    ev.name = track;
    ev.argsJson =
        "{\"" + jsonEscape(series) + "\": " + num(value) + "}";
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::instant(int pid, int tid, const std::string &name,
                           double ts_us)
{
    Event ev;
    ev.pid = pid;
    ev.tid = tid;
    ev.ts = ts_us;
    ev.ph = 'i';
    ev.name = name;
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::asyncBegin(int pid, const std::string &cat,
                              const std::string &name, std::uint64_t id,
                              double ts_us)
{
    Event ev;
    ev.pid = pid;
    ev.ts = ts_us;
    ev.ph = 'b';
    ev.name = name;
    ev.cat = cat;
    ev.id = id;
    ev.hasId = true;
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::asyncEnd(int pid, const std::string &cat,
                            const std::string &name, std::uint64_t id,
                            double ts_us)
{
    Event ev;
    ev.pid = pid;
    ev.ts = ts_us;
    ev.ph = 'e';
    ev.name = name;
    ev.cat = cat;
    ev.id = id;
    ev.hasId = true;
    events_.push_back(std::move(ev));
}

void
ChromeTraceWriter::write(std::ostream &os) const
{
    std::vector<const Event *> order;
    order.reserve(events_.size());
    for (const Event &ev : events_)
        order.push_back(&ev);
    // Metadata first, then (pid, tid, ts): the validator checks each
    // lane's timestamps are non-decreasing in document order.
    std::stable_sort(order.begin(), order.end(),
                     [](const Event *a, const Event *b) {
                         const bool ma = a->ph == 'M';
                         const bool mb = b->ph == 'M';
                         return std::make_tuple(!ma, a->pid, a->tid,
                                                a->ts) <
                                std::make_tuple(!mb, b->pid, b->tid,
                                                b->ts);
                     });

    os << "{\"traceEvents\": [";
    bool first = true;
    for (const Event *ev : order) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "{\"ph\": \"" << ev->ph << "\", \"pid\": " << ev->pid;
        if (ev->ph != 'C' && !(ev->ph == 'b' || ev->ph == 'e'))
            os << ", \"tid\": " << ev->tid;
        os << ", \"name\": \"" << jsonEscape(ev->name) << "\"";
        if (!ev->cat.empty())
            os << ", \"cat\": \"" << jsonEscape(ev->cat) << "\"";
        if (ev->hasId)
            os << ", \"id\": " << ev->id;
        if (ev->ph != 'M')
            os << ", \"ts\": " << num(ev->ts);
        if (ev->ph == 'X')
            os << ", \"dur\": " << num(ev->dur);
        if (ev->ph == 'i')
            os << ", \"s\": \"t\"";
        if (!ev->argsJson.empty())
            os << ", \"args\": " << ev->argsJson;
        os << "}";
    }
    os << "\n]}\n";
}

void
writeSimChromeTrace(const std::vector<TraceRecord> &records,
                    const std::vector<std::string> &lane_names,
                    std::ostream &os)
{
    ChromeTraceWriter writer;
    writer.processName(kSimPid, "sim-time");

    std::vector<bool> lane_named(lane_names.size(), false);
    auto nameLane = [&](std::uint16_t lane) {
        if (lane < lane_names.size() && !lane_named[lane]) {
            lane_named[lane] = true;
            writer.threadName(kSimPid, lane, lane_names[lane]);
        }
    };

    std::map<std::tuple<std::uint16_t, std::uint64_t, std::uint32_t>,
             TraceRecord>
        wire_departs;
    for (const TraceRecord &rec : records) {
        nameLane(rec.lane);
        const auto stage = static_cast<TraceStage>(rec.stage);
        switch (stage) {
          case TraceStage::WireDepart:
            wire_departs[{rec.lane, rec.id, rec.b & 0xffffu}] = rec;
            break;
          case TraceStage::WireArrive: {
            const auto it =
                wire_departs.find({rec.lane, rec.id, rec.b & 0xffffu});
            if (it == wire_departs.end())
                break;
            const TraceRecord &dep = it->second;
            std::ostringstream args;
            args << "{\"pkt\": " << dep.id
                 << ", \"seq\": " << (dep.b & 0xffffu)
                 << ", \"usedBytes\": " << (dep.a & 0xffffu)
                 << ", \"capacity\": " << (dep.a >> 16)
                 << ", \"stitchedPieces\": " << (dep.b >> 16) << "}";
            writer.slice(kSimPid, dep.lane, "flit", tickToUs(dep.tick),
                         tickToUs(rec.tick - dep.tick), args.str());
            wire_departs.erase(it);
            break;
          }
          case TraceStage::WalkStart:
            writer.asyncBegin(
                kSimPid, "ptw", "walk",
                (static_cast<std::uint64_t>(rec.lane) << 48) ^ rec.id,
                tickToUs(rec.tick));
            break;
          case TraceStage::WalkEnd:
            writer.asyncEnd(
                kSimPid, "ptw", "walk",
                (static_cast<std::uint64_t>(rec.lane) << 48) ^ rec.id,
                tickToUs(rec.tick));
            break;
          default:
            writer.instant(kSimPid, rec.lane, traceStageName(stage),
                           tickToUs(rec.tick));
            break;
        }
    }
    writer.write(os);
}

void
writeHostChromeTrace(const sim::ShardedEngine &engine, std::ostream &os)
{
    ChromeTraceWriter writer;
    writer.processName(kHostPid, "host-time");
    for (unsigned s = 0; s < engine.numShards(); ++s) {
        writer.threadName(kHostPid, static_cast<int>(s),
                          "shard" + std::to_string(s));
        for (const sim::QuantumSpan &span : engine.hostSpans(s)) {
            // Adaptive quanta vary per round; the width lands both in
            // the slice args and on its own counter track so the
            // window-size trajectory is graphable next to the stalls.
            // (Unbounded drain-ahead windows were clamped to the
            // shard's final tick when the span was recorded.)
            const auto width = span.windowEnd - span.windowStart + 1;
            std::ostringstream args;
            args << "{\"window_start\": " << span.windowStart
                 << ", \"window_end\": " << span.windowEnd
                 << ", \"window_ticks\": " << width
                 << ", \"stall_ticks\": " << span.stallTicks
                 << ", \"executor\": " << span.executor
                 << ", \"stolen\": " << (span.stolen ? "true" : "false")
                 << ", \"covered\": " << (span.covered ? "true" : "false")
                 << "}";
            writer.slice(kHostPid, static_cast<int>(s),
                         span.stolen ? "quantum (stolen)" : "quantum",
                         span.hostBegin * 1e6,
                         (span.hostEnd - span.hostBegin) * 1e6,
                         args.str());
            writer.counter(kHostPid, "barrier_stall_ticks",
                           span.hostEnd * 1e6,
                           "shard" + std::to_string(s),
                           static_cast<double>(span.stallTicks));
            // A covered tail stall cost no idle host time — its
            // executor moved straight on to another unit — so only
            // uncovered stalls land on the residual track.
            writer.counter(kHostPid, "residual_stall_ticks",
                           span.hostEnd * 1e6,
                           "shard" + std::to_string(s),
                           span.covered
                               ? 0.0
                               : static_cast<double>(span.stallTicks));
            writer.counter(kHostPid, "adaptive_window_ticks",
                           span.hostEnd * 1e6,
                           "shard" + std::to_string(s),
                           static_cast<double>(width));
        }
    }
    // The coordinator's per-round log: unit count, threads woken, and
    // the published-backlog spread (donor/thief imbalance) on counter
    // tracks of their own.
    for (const sim::RoundRecord &round : engine.roundLog()) {
        writer.counter(kHostPid, "round_units", round.hostTime * 1e6,
                       "units", static_cast<double>(round.units));
        writer.counter(kHostPid, "round_threads_woken",
                       round.hostTime * 1e6, "threads",
                       static_cast<double>(round.threadsWoken));
        writer.counter(kHostPid, "round_load_spread",
                       round.hostTime * 1e6, "events",
                       static_cast<double>(round.loadSpread));
        // Host-time self-profiling: cumulative per-phase seconds at
        // each barrier round, one counter track per phase. All-zero
        // rounds (profiling unarmed) are skipped so untouched traces
        // stay byte-identical to the pre-profiling format.
        double phase_total = 0;
        for (double secs : round.phaseSeconds)
            phase_total += secs;
        if (phase_total > 0) {
            for (unsigned p = 0; p < obs::kPhaseCount; ++p) {
                writer.counter(
                    kHostPid,
                    std::string("host_phase_") +
                        phaseName(static_cast<Phase>(p)),
                    round.hostTime * 1e6, "seconds",
                    round.phaseSeconds[p]);
            }
        }
    }
    writer.write(os);
}

} // namespace netcrafter::obs

/**
 * @file
 * heartbeat-validate: parse and schema-check an NDJSON heartbeat
 * stream emitted by the live-telemetry sampler (--heartbeat-out /
 * NETCRAFTER_HEARTBEAT_OUT). Checks per record: valid JSON, the
 * required top-level fields with the right types, a monotonically
 * increasing "seq", non-decreasing "host_seconds", per-run shard
 * arrays whose cells carry tick/events/backlog/next_tick, and the
 * five-phase profiling block. Prints a one-line summary and exits
 * non-zero on the first violation (or when --min-records is not met).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "src/obs/json_validate.hh"
#include "src/obs/progress_board.hh"

namespace {

using netcrafter::obs::JsonValue;

int
usage(int code)
{
    std::ostream &os = code == 0 ? std::cout : std::cerr;
    os << "usage: heartbeat-validate [--min-records N] "
          "<heartbeat.ndjson>\n";
    return code;
}

/** Fetch a required numeric member or fail with a located message. */
bool
wantNumber(const JsonValue &obj, const char *key, std::size_t line,
           double *out = nullptr)
{
    const JsonValue *v = obj.find(key);
    if (v == nullptr || !v->isNumber()) {
        std::cerr << "record " << line << ": missing or non-numeric \""
                  << key << "\"\n";
        return false;
    }
    if (out != nullptr)
        *out = v->number;
    return true;
}

bool
validateRecord(const JsonValue &root, std::size_t line,
               double *seq, double *host_seconds)
{
    if (!root.isObject()) {
        std::cerr << "record " << line << ": not a JSON object\n";
        return false;
    }
    if (!wantNumber(root, "seq", line, seq) ||
        !wantNumber(root, "host_seconds", line, host_seconds) ||
        !wantNumber(root, "events", line) ||
        !wantNumber(root, "backlog", line))
        return false;

    const JsonValue *runs = root.find("runs");
    if (runs == nullptr || !runs->isArray()) {
        std::cerr << "record " << line << ": missing \"runs\" array\n";
        return false;
    }
    for (const JsonValue &run : runs->array) {
        for (const char *key :
             {"round", "window_start", "window_end", "quanta",
              "stall_ticks", "steals_won", "idle_parks",
              "serve_inflight", "flow_lanes_active"}) {
            if (!wantNumber(run, key, line))
                return false;
        }
        const JsonValue *shards = run.find("shards");
        if (shards == nullptr || !shards->isArray() ||
            shards->array.empty()) {
            std::cerr << "record " << line
                      << ": run without a non-empty \"shards\" array\n";
            return false;
        }
        for (const JsonValue &cell : shards->array) {
            for (const char *key :
                 {"tick", "events", "backlog", "next_tick"}) {
                if (!wantNumber(cell, key, line))
                    return false;
            }
        }
    }

    const JsonValue *phases = root.find("phases");
    if (phases == nullptr || !phases->isObject()) {
        std::cerr << "record " << line
                  << ": missing \"phases\" object\n";
        return false;
    }
    for (unsigned p = 0; p < netcrafter::obs::kPhaseCount; ++p) {
        const char *key = netcrafter::obs::phaseName(
            static_cast<netcrafter::obs::Phase>(p));
        if (!wantNumber(*phases, key, line))
            return false;
    }

    // The sweep block is optional (only present under a Scheduler) but
    // typed when it appears.
    if (const JsonValue *sweep = root.find("sweep")) {
        if (!sweep->isObject()) {
            std::cerr << "record " << line
                      << ": \"sweep\" is not an object\n";
            return false;
        }
        for (const char *key :
             {"jobs_done", "jobs_total", "cache_hits", "eta_seconds"}) {
            if (!wantNumber(*sweep, key, line))
                return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string path;
    long min_records = 1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(0);
        if (arg == "--min-records") {
            if (i + 1 >= argc)
                return usage(1);
            char *end = nullptr;
            min_records = std::strtol(argv[++i], &end, 10);
            if (end == argv[i] || *end != '\0' || min_records < 0) {
                std::cerr << "--min-records must be a non-negative "
                             "integer\n";
                return usage(1);
            }
        } else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage(1);
        } else if (path.empty()) {
            path = arg;
        } else {
            return usage(1);
        }
    }
    if (path.empty())
        return usage(1);

    std::ifstream is(path);
    if (!is) {
        std::cerr << path << ": cannot open\n";
        return 1;
    }

    std::size_t records = 0;
    double last_seq = 0, last_host = -1;
    std::string text;
    while (std::getline(is, text)) {
        if (text.empty())
            continue;
        ++records;
        std::string error;
        JsonValue root;
        if (!netcrafter::obs::parseJson(text, root, &error)) {
            std::cerr << path << ": record " << records
                      << ": INVALID JSON: " << error << "\n";
            return 1;
        }
        double seq = 0, host_seconds = 0;
        if (!validateRecord(root, records, &seq, &host_seconds))
            return 1;
        if (seq <= last_seq) {
            std::cerr << path << ": record " << records
                      << ": \"seq\" not increasing (" << seq
                      << " after " << last_seq << ")\n";
            return 1;
        }
        if (host_seconds < last_host) {
            std::cerr << path << ": record " << records
                      << ": \"host_seconds\" went backwards\n";
            return 1;
        }
        last_seq = seq;
        last_host = host_seconds;
    }

    if (records < static_cast<std::size_t>(min_records)) {
        std::cerr << path << ": only " << records
                  << " heartbeat record(s), wanted at least "
                  << min_records << "\n";
        return 1;
    }
    std::cout << path << ": ok (" << records
              << " heartbeat records, last seq " << last_seq
              << ", last host_seconds " << last_host << ")\n";
    return 0;
}

/**
 * @file
 * netcrafter-sweep: regenerate any subset of the paper's tables and
 * figures (and the ablation) in one invocation; it is the only front end
 * of the figure registry (src/exp/figures.hh). All selected figures
 * share one thread-pool scheduler and one result cache, so design
 * points common to several figures (the baseline above all) are
 * simulated exactly once per run, in parallel across cores, with output
 * identical at any worker count. Results can additionally be exported
 * as JSON or CSV.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/export.hh"
#include "src/exp/figures.hh"
#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"
#include "src/exp/serve_curve.hh"
#include "src/gpu/system.hh"
#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "src/obs/chrome_trace.hh"
#include "src/obs/telemetry.hh"
#include "src/workloads/workload.hh"

namespace {

using namespace netcrafter;

int
usage(int code)
{
    std::ostream &os = code == 0 ? std::cout : std::cerr;
    os << "usage: netcrafter-sweep [options] <figure>... | all\n"
          "       netcrafter-sweep --serve [options]\n"
          "\n"
          "Regenerate the paper's tables and figures (see --list)\n"
          "through the parallel experiment orchestrator. Figures\n"
          "share one result cache: every unique\n"
          "(workload, config, scale) point is simulated once per run.\n"
          "With --serve, run the open-loop serving saturation curve\n"
          "(baseline vs full NetCrafter) instead of figures.\n"
          "\n"
          "options:\n"
          "  --serve           sweep offered load over an open-loop\n"
          "                    serving scenario and print per-class\n"
          "                    p50/p95/p99/p999 latency plus the knee\n"
          "  --offered-load A:B:STEP  offered-load range in requests\n"
          "                    per kilocycle (default 2:10:2)\n"
          "  --arrival KIND    poisson|uniform|bursty (default poisson;\n"
          "                    NETCRAFTER_SERVE_* env vars set the\n"
          "                    remaining serving knobs)\n"
          "  --list            list available figures and exit\n"
          "  --jobs N          worker threads (default: all cores;\n"
          "                    1 = serial)\n"
          "  --shards N        engine shards per simulation (default 1\n"
          "                    = serial; more than the cluster count\n"
          "                    is an error; results are bit-identical\n"
          "                    at any valid count).\n"
          "                    The default worker count is divided by N\n"
          "                    so jobs x shards never oversubscribes\n"
          "  --scale X         problem-size multiplier (overrides\n"
          "                    NETCRAFTER_SCALE)\n"
          "  --fidelity F      cycle|flow|hybrid (default: the\n"
          "                    validated NETCRAFTER_FIDELITY env, else\n"
          "                    cycle). flow/hybrid approximate the\n"
          "                    cycle-accurate numbers (see\n"
          "                    validate-fidelity) and require\n"
          "                    --shards 1\n"
          "  --json FILE       export every simulated result as JSON\n"
          "  --csv FILE        export every simulated result as CSV\n"
          "  --timings         print a per-job wall-time table\n"
          "  --quiet           suppress per-job progress lines\n"
          "  --live            single-line live progress/ETA display\n"
          "                    instead of per-job lines (redrawn in\n"
          "                    place on stderr by the telemetry\n"
          "                    sampler)\n"
          "  --heartbeat-out FILE  append one NDJSON heartbeat record\n"
          "                    per interval (per-shard tick/event/\n"
          "                    backlog progress, phase times, sweep\n"
          "                    ETA); validate with heartbeat-validate.\n"
          "                    NETCRAFTER_HEARTBEAT_* set the same\n"
          "                    knobs\n"
          "  --heartbeat-interval MS  wall ms between heartbeats\n"
          "                    (default 500)\n"
          "  --watchdog SECS   dump a flight-recorder snapshot to\n"
          "                    stderr when no simulation progress is\n"
          "                    made for SECS host seconds\n"
          "                    (NETCRAFTER_WATCHDOG_{SECS,DUMP,ABORT}\n"
          "                    add a dump file / abort-on-hang)\n"
          "  --registry-json FILE  with --workload: run one workload\n"
          "                    under the baseline config and dump its\n"
          "                    full stats registry as JSON\n"
          "  --workload NAME   workload for --registry-json\n"
          "  --trace-out DIR   write per-run Chrome/Perfetto traces,\n"
          "                    time-series CSVs and stats JSON into DIR,\n"
          "                    plus DIR/scheduler.host.trace.json laying\n"
          "                    every job on the host timeline. Cached\n"
          "                    jobs simulate nothing and emit no files\n"
          "  --trace-level L   off|links|packets|full (default: packets\n"
          "                    once --trace-out or --sample-interval is\n"
          "                    given)\n"
          "  --sample-interval N  time-series row every N sim ticks\n";
    return code;
}

/**
 * Lay every scheduled job on the host timeline as pid-3 slices: jobs
 * are greedily packed onto the fewest lanes such that no lane overlaps
 * (lane count ~= peak worker concurrency).
 */
void
writeSchedulerHostTrace(const exp::Scheduler &scheduler,
                        std::ostream &os)
{
    std::vector<exp::JobTiming> jobs = scheduler.timingHistory();
    std::sort(jobs.begin(), jobs.end(),
              [](const exp::JobTiming &a, const exp::JobTiming &b) {
                  return a.startSeconds < b.startSeconds;
              });

    obs::ChromeTraceWriter writer;
    writer.processName(obs::kSchedulerPid, "scheduler jobs");
    std::vector<double> lane_free; // per-lane end of the last job, sec
    for (const auto &job : jobs) {
        std::size_t lane = lane_free.size();
        for (std::size_t l = 0; l < lane_free.size(); ++l) {
            if (lane_free[l] <= job.startSeconds) {
                lane = l;
                break;
            }
        }
        if (lane == lane_free.size()) {
            lane_free.push_back(0);
            writer.threadName(obs::kSchedulerPid,
                              static_cast<int>(lane),
                              "lane " + std::to_string(lane));
        }
        lane_free[lane] = job.startSeconds + job.seconds;
        writer.slice(obs::kSchedulerPid, static_cast<int>(lane),
                     job.name, job.startSeconds * 1e6,
                     job.seconds * 1e6,
                     std::string("{\"cache_hit\":") +
                         (job.cacheHit ? "true" : "false") + "}");
    }
    writer.write(os);
}

int
listFigures()
{
    std::cout << "available figures:\n";
    for (const auto &fig : exp::figureRegistry()) {
        std::cout << "  " << std::left << std::setw(10) << fig.name
                  << fig.caption << "\n";
    }
    return 0;
}

bool
writeFile(const std::string &path,
          const std::function<void(std::ostream &)> &write)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write '" << path << "'\n";
        return false;
    }
    write(os);
    return true;
}

int
dumpRegistry(const std::string &workload, double scale,
             const std::string &path)
{
    auto wl = workloads::makeWorkload(workload);
    gpu::MultiGpuSystem system(config::baselineConfig());
    system.run(*wl, scale);
    const stats::Registry reg = system.collectStats();
    return writeFile(path,
                     [&](std::ostream &os) {
                         exp::writeRegistryJson(reg, os);
                     })
               ? 0
               : 1;
}

/** Parse an --offered-load "A:B:STEP" range; exits on junk. */
void
parseLoadRange(const std::string &text, exp::ServeCurveSpec &spec)
{
    double vals[3];
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i) {
        const std::size_t sep = text.find(':', pos);
        const bool last = i == 2;
        if (last != (sep == std::string::npos)) {
            std::cerr << "--offered-load wants A:B:STEP, got '" << text
                      << "'\n";
            std::exit(usage(1));
        }
        const std::string field =
            text.substr(pos, last ? std::string::npos : sep - pos);
        char *end = nullptr;
        vals[i] = std::strtod(field.c_str(), &end);
        if (field.empty() || end == nullptr || *end != '\0' ||
            !std::isfinite(vals[i]) || vals[i] <= 0) {
            std::cerr << "--offered-load values must be positive "
                         "finite numbers, got '"
                      << field << "' in '" << text << "'\n";
            std::exit(usage(1));
        }
        pos = sep + 1;
    }
    if (vals[1] < vals[0]) {
        std::cerr << "--offered-load range is empty: " << text << "\n";
        std::exit(usage(1));
    }
    spec.loadStart = vals[0];
    spec.loadStop = vals[1];
    spec.loadStep = vals[2];
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> want;
    std::string json_path, csv_path, registry_json, registry_workload;
    // Run flags override their NETCRAFTER_* variables (overlayEnv).
    harness::RunFlags flags;
    exp::ProgressMode progress = exp::ProgressMode::PerJob;
    bool timings = false;
    // Telemetry flags override the NETCRAFTER_HEARTBEAT_* /
    // NETCRAFTER_WATCHDOG_* environment.
    obs::TelemetryOptions telemetry = obs::TelemetryOptions::fromEnv();
    bool serve_mode = false;
    exp::ServeCurveSpec serve_spec;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " requires a value\n";
                std::exit(usage(1));
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            return usage(0);
        else if (arg == "--list")
            return listFigures();
        else if (flags.consume(argc, argv, i))
            continue;
        else if (arg == "--scale")
            flags.set("NETCRAFTER_SCALE", "--scale", value("--scale"));
        else if (arg == "--json")
            json_path = value("--json");
        else if (arg == "--csv")
            csv_path = value("--csv");
        else if (arg == "--registry-json")
            registry_json = value("--registry-json");
        else if (arg == "--workload")
            registry_workload = value("--workload");
        else if (arg == "--serve")
            serve_mode = true;
        else if (arg == "--offered-load")
            parseLoadRange(value("--offered-load"), serve_spec);
        else if (arg == "--arrival") {
            flags.set("NETCRAFTER_SERVE_ARRIVAL", "--arrival",
                      value("--arrival"));
        }
        else if (arg == "--timings")
            timings = true;
        else if (arg == "--quiet")
            progress = exp::ProgressMode::Off;
        else if (arg == "--live") {
            progress = exp::ProgressMode::Live;
            telemetry.tty = true;
        }
        else if (arg == "--heartbeat-out")
            telemetry.heartbeatPath = value("--heartbeat-out");
        else if (arg == "--heartbeat-interval") {
            const std::string text = value("--heartbeat-interval");
            char *end = nullptr;
            const long n = std::strtol(text.c_str(), &end, 10);
            if (end == text.c_str() || *end != '\0' || n < 1 ||
                n > 3'600'000) {
                std::cerr << "--heartbeat-interval must be a wall "
                             "interval in [1, 3600000] ms, got '"
                          << text << "'\n";
                return usage(1);
            }
            telemetry.intervalMs = static_cast<unsigned>(n);
        }
        else if (arg == "--watchdog") {
            const std::string text = value("--watchdog");
            char *end = nullptr;
            const double secs = std::strtod(text.c_str(), &end);
            if (end == text.c_str() || *end != '\0' || !(secs > 0)) {
                std::cerr << "--watchdog must be a positive host-"
                             "second threshold, got '"
                          << text << "'\n";
                return usage(1);
            }
            telemetry.watchdogSecs = secs;
        }
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            return usage(1);
        } else if (arg == "all") {
            want.clear();
            for (const auto &fig : exp::figureRegistry())
                want.push_back(fig.name);
        } else {
            want.push_back(arg);
        }
    }

    exp::Scheduler::Options opts;
    opts.progress = progress;
    harness::overlayEnv(opts.run, flags, &opts.workers);
    // NETCRAFTER_SERVE_* (and --arrival) set the scenario; the
    // offered-load range comes from --offered-load.
    serve_spec.serve = opts.run.serve;

    if (!registry_json.empty()) {
        if (registry_workload.empty()) {
            std::cerr << "--registry-json requires --workload\n";
            return usage(1);
        }
        return dumpRegistry(registry_workload, opts.run.scale,
                            registry_json);
    }
    if (want.empty() && !serve_mode)
        return usage(1);
    if (serve_mode && !want.empty()) {
        std::cerr << "--serve does not take figure names\n";
        return usage(1);
    }

    for (const auto &name : want) {
        if (exp::findFigure(name) == nullptr) {
            std::cerr << "unknown figure '" << name
                      << "' (try --list)\n";
            return 1;
        }
    }

    // Start the sampler from NETCRAFTER_HEARTBEAT_* / _WATCHDOG_* and
    // the telemetry flags before any job runs, so every MultiGpuSystem
    // registers its progress board. (The Scheduler's Live fallback only
    // adds the TTY line for library callers that started nothing.)
    if (telemetry.enabled())
        obs::Telemetry::instance().start(telemetry);

    exp::ResultCache cache;
    exp::Scheduler scheduler(opts, &cache);

    if (serve_mode) {
        serve_spec.configs = {
            {"baseline", config::baselineConfig()},
            {"netcrafter", exp::fullNetcrafter()},
        };
        const exp::ServeCurveResult curve =
            exp::runServeCurve(scheduler, serve_spec);
        exp::printServeCurve(curve, std::cout);
        std::cout << "\n";
    }

    for (const auto &name : want) {
        const exp::Figure *fig = exp::findFigure(name);
        exp::FigureContext ctx{scheduler, std::cout};
        fig->run(ctx);
        std::cout << "\n";
    }

    // Join the sampler before printing the summary: emits the final
    // heartbeat and, with --live, terminates the TTY line cleanly.
    obs::Telemetry::instance().stop();

    // Per-job wall-time stats come from the cache snapshot: one entry
    // per unique simulated point.
    const auto unique_points = exp::recordsFromCache(cache);
    double sim_seconds = 0;
    for (const auto &r : unique_points)
        sim_seconds += r.result.wallSeconds;

    if (timings) {
        harness::Table table(
            {"workload", "config digest", "scale", "sim seconds"});
        for (const auto &r : unique_points)
            table.addRow({r.result.workload,
                          config::digestHex(r.configDigest),
                          harness::Table::fmt(r.scale, 2),
                          harness::Table::fmt(r.result.wallSeconds, 3)});
        table.print(std::cout);
        std::cout << "\n";
    }

    std::cout << "sweep summary: " << want.size() << " figure(s), "
              << cache.misses() << " unique point(s) simulated, "
              << cache.hits() << " cache hit(s), "
              << scheduler.workers() << " worker(s), "
              << scheduler.shards() << " shard(s), "
              << harness::Table::fmt(sim_seconds, 2)
              << "s total simulation time\n";

    if (!opts.run.trace.outDir.empty()) {
        std::filesystem::create_directories(opts.run.trace.outDir);
        const std::string path =
            opts.run.trace.outDir + "/scheduler.host.trace.json";
        if (!writeFile(path, [&](std::ostream &os) {
                writeSchedulerHostTrace(scheduler, os);
            }))
            return 1;
    }

    // Exports carry one row per figure job (sweep-qualified names);
    // points shared between figures repeat under each name and can be
    // deduplicated on (workload, config_digest, scale).
    const auto records = exp::recordsFromScheduler(scheduler);
    if (!json_path.empty() &&
        !writeFile(json_path,
                   [&](std::ostream &os) { exp::writeJson(records, os); }))
        return 1;
    if (!csv_path.empty() &&
        !writeFile(csv_path,
                   [&](std::ostream &os) { exp::writeCsv(records, os); }))
        return 1;
    return 0;
}

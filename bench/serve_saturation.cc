/**
 * @file
 * Serving-saturation performance harness: runs the open-loop serving
 * scenario (Poisson arrivals, default class mix) at several offered
 * loads under the baseline and full-NetCrafter configurations, checks
 * the determinism contract (serial vs 2-shard bit-identity, ordered
 * percentiles), and reports simulator throughput as machine-readable
 * JSON.
 *
 * The JSON seeds the serving leg of the repo's perf trajectory: each
 * BENCH_serve.json entry is one (config, load) point with its tail
 * latencies and host-side cost. Compare "events_per_second" across
 * commits to track serving-path regressions; the latency percentiles
 * themselves must stay bit-identical.
 *
 * Usage:
 *   serve_saturation [--out FILE] [--quick] [--scale S]
 *
 *   --out FILE   write JSON to FILE (default BENCH_serve.json)
 *   --quick      two loads instead of four (CI smoke)
 *   --scale S    extra footprint multiplier on top of NETCRAFTER_SCALE
 *
 * The default scenario keeps the measurement window short (2k warmup /
 * 8k measure) so the CI smoke stays cheap — short enough that neither
 * curve reaches its saturation knee. Set NETCRAFTER_SERVE_LONG=1 when
 * running outside CI to extend the window (5k/60k) and sweep loads
 * high enough that the knee (first load whose aggregate p99 exceeds
 * 3x the low-load p99) is actually reachable; the per-config knee is
 * reported in the JSON either way ("null" when not reached).
 *
 * Exits non-zero when any point breaks bit-identity across shard
 * counts or reports unordered percentiles.
 */

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hh"
#include "src/exp/export.hh"
#include "src/serve/serve_config.hh"
#include "src/sim/logging.hh"

namespace {

using namespace netcrafter;

struct Point
{
    std::string config;
    double load = 0;
    harness::RunResult serial;
    double wallSerial = 0;
    double wallSharded = 0;
    bool identical = false;
    bool ordered = false;
};

double
seconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * NETCRAFTER_SERVE_LONG: opt into the knee-reaching scenario (longer
 * measurement window, higher loads). Validated like every other env
 * knob — garbage dies instead of silently running the short window.
 */
bool
serveLongFromEnv()
{
    const char *text = std::getenv("NETCRAFTER_SERVE_LONG");
    if (text == nullptr || *text == '\0')
        return false;
    if (std::strcmp(text, "1") == 0 || std::strcmp(text, "on") == 0 ||
        std::strcmp(text, "true") == 0)
        return true;
    if (std::strcmp(text, "0") == 0 || std::strcmp(text, "off") == 0 ||
        std::strcmp(text, "false") == 0)
        return false;
    NC_FATAL("NETCRAFTER_SERVE_LONG must be one of 0/1/on/off/"
             "true/false, got '", text, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path = "BENCH_serve.json";
    bool quick = false;
    double scale = 1.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: serve_saturation [--out FILE] "
                         "[--quick] [--scale S]\n";
            return 1;
        }
    }

    const bool long_window = serveLongFromEnv();
    // The determinism leg runs every point at 2 shards.
    const std::string note =
        bench::undersubscribedNote("serve_saturation", 2);

    serve::ServeConfig sc;
    sc.enabled = true;
    sc.arrival = serve::ArrivalKind::Poisson;
    sc.seed = 1;
    sc.warmupTicks = long_window ? 5'000 : 2'000;
    sc.measureTicks = long_window ? 60'000 : 8'000;

    std::vector<double> loads;
    if (long_window)
        loads = quick ? std::vector<double>{2, 8, 16}
                      : std::vector<double>{2, 4, 6, 8, 10, 12, 14, 16};
    else
        loads = quick ? std::vector<double>{2, 6}
                      : std::vector<double>{2, 4, 6, 8};
    const std::vector<std::pair<std::string, config::SystemConfig>>
        configs = {{"baseline", config::baselineConfig()},
                   {"netcrafter", bench::fullNetcrafter()}};

    bool all_ok = true;
    std::vector<Point> points;
    harness::RunSpec spec = bench::envSpec();
    spec.scale *= scale;
    for (const auto &[label, cfg] : configs) {
        for (double load : loads) {
            spec.serve = sc;
            spec.serve.offeredLoad = load;
            spec.config = cfg;

            Point p;
            p.config = label;
            p.load = load;

            auto t0 = std::chrono::steady_clock::now();
            spec.shards = 1;
            p.serial = harness::run(spec);
            p.wallSerial = seconds(t0);

            t0 = std::chrono::steady_clock::now();
            spec.shards = 2;
            const harness::RunResult sharded = harness::run(spec);
            p.wallSharded = seconds(t0);

            p.identical = harness::sameMeasurement(p.serial, sharded);
            const auto &all = p.serial.serveClasses[3];
            p.ordered = all.p50 <= all.p99 && all.p99 <= all.p999;

            if (!p.identical)
                std::cerr << "serve_saturation: " << label << " load "
                          << load
                          << " diverged between 1 and 2 shards\n";
            if (!p.ordered)
                std::cerr << "serve_saturation: " << label << " load "
                          << load << " percentiles unordered: p50="
                          << all.p50 << " p99=" << all.p99 << " p999="
                          << all.p999 << "\n";
            all_ok = all_ok && p.identical && p.ordered;

            std::cerr << label << " load " << load << ": p99="
                      << all.p99 << " xput=" << p.serial.serveThroughput
                      << " (" << p.wallSerial << "s serial, "
                      << p.wallSharded << "s 2-shard)\n";
            points.push_back(std::move(p));
        }
    }

    // Per-config knee, same rule as exp::runServeCurve: the first load
    // whose aggregate p99 exceeds 3x the lowest-load p99 of its curve.
    // Only the long-window scenario sweeps far enough to reach it.
    std::vector<std::pair<std::string, double>> knees;
    for (const auto &[label, cfg] : configs) {
        (void)cfg;
        double base_p99 = 0;
        double knee = 0;
        for (const Point &p : points) {
            if (p.config != label)
                continue;
            const auto p99 =
                static_cast<double>(p.serial.serveClasses[3].p99);
            if (p.load == loads.front())
                base_p99 = p99;
            if (base_p99 > 0 && p99 > 3.0 * base_p99 && knee == 0)
                knee = p.load;
        }
        knees.emplace_back(label, knee);
        if (knee > 0)
            std::cerr << "knee " << label << ": " << knee
                      << " req/kcycle\n";
    }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    const unsigned host_cpus = netcrafter::bench::hostCpus();
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"serve_saturation\",\n";
    os << "  \"arrival\": \"poisson\",\n";
    os << "  \"mix\": \"" << exp::jsonEscape(sc.mix.toString())
       << "\",\n";
    os << "  \"warmup_ticks\": " << sc.warmupTicks << ",\n";
    os << "  \"measure_ticks\": " << sc.measureTicks << ",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"long_window\": " << (long_window ? "true" : "false")
       << ",\n";
    os << "  \"knee\": {";
    for (std::size_t i = 0; i < knees.size(); ++i) {
        os << (i ? ", " : "") << "\"" << exp::jsonEscape(knees[i].first)
           << "\": ";
        if (knees[i].second > 0)
            os << knees[i].second;
        else
            os << "null";
    }
    os << "},\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"env_scale\": " << bench::envSpec().scale << ",\n";
    os << "  \"host_cpus\": " << host_cpus << ",\n";
    os << "  \"notes\": \"" << exp::jsonEscape(note) << "\",\n";
    os << "  \"shard_identical\": " << (all_ok ? "true" : "false")
       << ",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        const auto &all = p.serial.serveClasses[3];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"config\": \"" << exp::jsonEscape(p.config) << "\", "
           << "\"offered_load\": " << p.load << ", "
           << "\"injected\": " << p.serial.serveInjected << ", "
           << "\"measured\": " << p.serial.serveMeasured << ", "
           << "\"throughput\": " << p.serial.serveThroughput << ", "
           << "\"p50\": " << all.p50 << ", "
           << "\"p99\": " << all.p99 << ", "
           << "\"p999\": " << all.p999 << ", "
           << "\"events\": " << p.serial.events << ", "
           << "\"cycles\": " << p.serial.cycles << ", "
           << "\"wall_seconds\": " << p.wallSerial << ", "
           << "\"wall_seconds_2shard\": " << p.wallSharded << ", "
           << "\"events_per_second\": "
           << (p.wallSerial > 0
                   ? static_cast<double>(p.serial.events) / p.wallSerial
                   : 0.0)
           << ", "
           << "\"shard_identical\": "
           << (p.identical ? "true" : "false") << "}";
    }
    os << "\n  ]\n}\n";

    std::cout << "serve_saturation: " << points.size() << " points, "
              << (all_ok ? "shard-identical and ordered"
                         : "DETERMINISM VIOLATION")
              << ", host_cpus=" << host_cpus << " (JSON: " << out_path
              << ")\n";
    return all_ok ? 0 : 1;
}

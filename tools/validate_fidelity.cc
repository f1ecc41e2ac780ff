/**
 * @file
 * Hybrid-fidelity validation harness: runs a figure-style workload grid
 * at cycle fidelity and at a comparison fidelity (default hybrid) and
 * reports the relative error on every headline figure metric, plus the
 * exact packet/byte conservation check at the fidelity boundary.
 *
 * Exit status is the gate CI consumes: non-zero when any per-figure
 * relative error exceeds the tolerance (default 2%) or when flow-lane
 * conservation is violated. The per-point table goes to stderr and a
 * machine-readable JSON summary to --out.
 *
 * Usage:
 *   validate-fidelity [--fidelity flow|hybrid] [--quick] [--scale S]
 *                     [--tolerance PCT] [--out FILE]
 *
 *   --fidelity F   comparison fidelity (default hybrid)
 *   --quick        fig03/fig14-style subset: base + full configs only
 *   --scale S      problem-size multiplier (default 1.0)
 *   --tolerance P  max relative error, percent (default 2.0)
 *   --out FILE     JSON summary (default VALIDATE_fidelity.json)
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "src/config/system_config.hh"
#include "src/exp/export.hh"
#include "src/flow/fidelity.hh"
#include "src/harness/runner.hh"

namespace {

using netcrafter::config::SystemConfig;
using netcrafter::harness::RunResult;

/** One compared metric: name, cycle value, comparison value. */
struct Metric
{
    const char *name;
    double cycle;
    double other;

    double
    relError() const
    {
        const double denom = std::max(std::fabs(cycle), 1e-9);
        return std::fabs(other - cycle) / denom;
    }
};

/**
 * The headline per-figure metrics: execution time (fig 14/22), the
 * inter-cluster census (figs 4/6/9/20), remote-read latency (figs
 * 5/15), and the L1 picture (figs 16/17). Count-style metrics that
 * the fused path preserves exactly (instructions, reads, walks) are
 * compared too — they catch modelling bugs loudly.
 */
std::vector<Metric>
metricsOf(const RunResult &c, const RunResult &h)
{
    auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    return {
        {"cycles", d(c.cycles), d(h.cycles)},
        {"instructions", d(c.instructions), d(h.instructions)},
        {"l1ReadMisses", d(c.l1ReadMisses), d(h.l1ReadMisses)},
        {"remoteReads", d(c.remoteReads), d(h.remoteReads)},
        {"localReads", d(c.localReads), d(h.localReads)},
        {"pageWalks", d(c.pageWalks), d(h.pageWalks)},
        {"interUsefulBytes", d(c.interUsefulBytes),
         d(h.interUsefulBytes)},
        {"interWireBytes", d(c.interWireBytes), d(h.interWireBytes)},
        {"avgInterReadLatency", c.avgInterReadLatency,
         h.avgInterReadLatency},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace netcrafter;

    std::string out_path = "VALIDATE_fidelity.json";
    flow::Fidelity fidelity = flow::Fidelity::Hybrid;
    bool quick = false;
    double scale = 1.0;
    double tolerance_pct = 2.0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--fidelity" && i + 1 < argc) {
            fidelity = flow::parseFidelityOrDie(argv[++i], "--fidelity");
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--scale" && i + 1 < argc) {
            scale = std::strtod(argv[++i], nullptr);
        } else if (arg == "--tolerance" && i + 1 < argc) {
            tolerance_pct = std::strtod(argv[++i], nullptr);
        } else {
            std::cerr << "usage: validate-fidelity [--fidelity F] "
                         "[--quick] [--scale S] [--tolerance PCT] "
                         "[--out FILE]\n";
            return 2;
        }
    }
    if (fidelity == flow::Fidelity::Cycle) {
        std::cerr << "validate-fidelity: comparison fidelity must be "
                     "flow or hybrid\n";
        return 2;
    }

    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"base", config::baselineConfig()},
        {"full", bench::fullNetcrafter()},
    };
    if (!quick) {
        configs.insert(configs.begin() + 1,
                       {"stitch", bench::stitchSelective32()});
        configs.insert(configs.begin() + 2,
                       {"trim", bench::stitchTrim()});
        configs.push_back({"sector", config::sectorCacheConfig(16)});
    }

    // NETCRAFTER_SCALE multiplies --scale; every other run argument is
    // pinned: serial, untraced, cycle vs the comparison fidelity.
    harness::RunSpec spec = bench::envSpec();
    spec.scale *= scale;
    spec.shards = 1;
    spec.exec = sim::ExecPolicy{0, false, 1};
    spec.trace = {};
    const double tol = tolerance_pct / 100.0;

    struct PointRow
    {
        std::string config;
        std::string workload;
        double worstErr = 0;
        std::string worstMetric;
        bool conserved = true;
        std::uint64_t flowPackets = 0;
        std::uint64_t cyclePackets = 0;
        double speedup = 0;
    };
    std::vector<PointRow> rows;
    bool errors_ok = true;
    bool conservation_ok = true;
    double worst_err = 0;
    std::string worst_at;

    for (const auto &[cfg_name, cfg] : configs) {
        for (const auto &app : bench::apps()) {
            spec.workload = app;
            spec.config = cfg;
            spec.fidelity = flow::Fidelity::Cycle;
            const RunResult c = harness::run(spec);
            spec.fidelity = fidelity;
            const RunResult h = harness::run(spec);

            PointRow row;
            row.config = cfg_name;
            row.workload = app;
            for (const Metric &m : metricsOf(c, h)) {
                const double err = m.relError();
                if (err > row.worstErr) {
                    row.worstErr = err;
                    row.worstMetric = m.name;
                }
            }
            row.conserved =
                h.flowPackets == h.flowPacketsDelivered &&
                h.flowBytesInjected == h.flowBytesDelivered;
            row.flowPackets = h.flowPackets;
            row.cyclePackets = h.flowCyclePackets;
            row.speedup = h.wallSeconds > 0
                              ? c.wallSeconds / h.wallSeconds
                              : 0;

            if (row.worstErr > tol)
                errors_ok = false;
            if (!row.conserved)
                conservation_ok = false;
            if (row.worstErr > worst_err) {
                worst_err = row.worstErr;
                worst_at = cfg_name + "/" + app + " " +
                           row.worstMetric;
            }
            std::cerr << cfg_name << "/" << app << ": worst "
                      << row.worstMetric << " "
                      << 100 * row.worstErr << "% ("
                      << row.flowPackets << " flow / "
                      << row.cyclePackets << " cycle pkts, "
                      << (row.conserved ? "conserved"
                                        : "NOT CONSERVED")
                      << ", " << row.speedup << "x wall)\n";
            rows.push_back(std::move(row));
        }
    }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot open " << out_path << " for writing\n";
        return 1;
    }
    os.precision(17);
    os << "{\n";
    os << "  \"bench\": \"validate_fidelity\",\n";
    os << "  \"fidelity\": \"" << flow::fidelityName(fidelity)
       << "\",\n";
    os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    os << "  \"scale\": " << scale << ",\n";
    os << "  \"tolerance_pct\": " << tolerance_pct << ",\n";
    os << "  \"errors_within_tolerance\": "
       << (errors_ok ? "true" : "false") << ",\n";
    os << "  \"conservation_exact\": "
       << (conservation_ok ? "true" : "false") << ",\n";
    os << "  \"worst_error_pct\": " << 100 * worst_err << ",\n";
    os << "  \"worst_error_at\": \"" << exp::jsonEscape(worst_at)
       << "\",\n";
    os << "  \"points\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PointRow &r = rows[i];
        os << (i ? ",\n    {" : "\n    {");
        os << "\"config\": \"" << exp::jsonEscape(r.config) << "\", "
           << "\"workload\": \"" << exp::jsonEscape(r.workload)
           << "\", "
           << "\"worst_error_pct\": " << 100 * r.worstErr << ", "
           << "\"worst_metric\": \"" << exp::jsonEscape(r.worstMetric)
           << "\", "
           << "\"conserved\": " << (r.conserved ? "true" : "false")
           << ", "
           << "\"flow_packets\": " << r.flowPackets << ", "
           << "\"cycle_packets\": " << r.cyclePackets << ", "
           << "\"wall_speedup\": " << r.speedup << "}";
    }
    os << "\n  ]\n}\n";

    const bool ok = errors_ok && conservation_ok;
    std::cout << "validate-fidelity ("
              << flow::fidelityName(fidelity) << "): "
              << (ok ? "PASS" : "FAIL") << " — worst error "
              << 100 * worst_err << "% at " << worst_at
              << (conservation_ok ? ", conservation exact"
                                  : ", CONSERVATION VIOLATED")
              << " (JSON: " << out_path << ")\n";
    return ok ? 0 : 1;
}

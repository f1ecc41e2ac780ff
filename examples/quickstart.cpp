/**
 * @file
 * Quickstart: build the Table 2 baseline system, run one workload under
 * the baseline and under full NetCrafter, and print the speedup — the
 * library's whole public API in ~40 lines.
 *
 * Usage: example_quickstart [workload] [scale] (plus NETCRAFTER_* vars)
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "src/config/system_config.hh"
#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "src/obs/telemetry.hh"

int
main(int argc, char **argv)
{
    using namespace netcrafter;

    harness::RunSpec spec;
    spec.workload = argc > 1 ? argv[1] : "GUPS";
    spec.scale = argc > 2 ? std::atof(argv[2]) : 1.0;
    harness::overlayEnv(spec);
    obs::Telemetry::instance().start(obs::TelemetryOptions::fromEnv());

    // Table 2 baseline: 4 GPUs in 2 clusters, 128 GB/s intra-cluster,
    // 16 GB/s inter-cluster, no NetCrafter.
    spec.config = config::baselineConfig();
    std::cout << "Simulating " << spec.workload << " (scale "
              << spec.scale << ") on the baseline non-uniform system...\n";
    harness::RunResult base = harness::run(spec);

    // The full NetCrafter design point: Stitching + Selective Flit
    // Pooling (32 cycles) + Trimming (16B) + Sequencing.
    spec.config = config::netcrafterConfig();
    std::cout << "Simulating " << spec.workload << " with NetCrafter...\n\n";
    harness::RunResult nc = harness::run(spec);

    harness::Table table({"metric", "baseline", "netcrafter"});
    table.addRow({"cycles", std::to_string(base.cycles),
                  std::to_string(nc.cycles)});
    table.addRow({"speedup", "1.00",
                  harness::Table::fmt(
                      static_cast<double>(base.cycles) /
                      static_cast<double>(nc.cycles))});
    table.addRow({"inter-cluster flits", std::to_string(base.interFlits),
                  std::to_string(nc.interFlits)});
    table.addRow({"inter-cluster wire bytes",
                  std::to_string(base.interWireBytes),
                  std::to_string(nc.interWireBytes)});
    table.addRow({"link utilization",
                  harness::Table::pct(base.interUtilization),
                  harness::Table::pct(nc.interUtilization)});
    table.addRow({"avg inter-cluster read latency (cyc)",
                  harness::Table::fmt(base.avgInterReadLatency, 0),
                  harness::Table::fmt(nc.avgInterReadLatency, 0)});
    table.addRow({"stitched flit fraction",
                  harness::Table::pct(base.stitchedFraction),
                  harness::Table::pct(nc.stitchedFraction)});
    table.addRow({"trimmed packets", std::to_string(base.trimmedPackets),
                  std::to_string(nc.trimmedPackets)});
    table.addRow({"PTW byte fraction",
                  harness::Table::pct(base.ptwByteFraction),
                  harness::Table::pct(nc.ptwByteFraction)});
    table.addRow({"L1 MPKI", harness::Table::fmt(base.l1Mpki),
                  harness::Table::fmt(nc.l1Mpki)});
    table.print(std::cout);

    std::cout << "\n(sim wall time: baseline "
              << harness::Table::fmt(base.wallSeconds) << "s, netcrafter "
              << harness::Table::fmt(nc.wallSeconds) << "s)\n";
    return 0;
}

/**
 * @file
 * Ablation study of NetCrafter's design choices beyond the paper's own
 * sweeps: each mechanism alone, pairs, the full stack, and the two
 * implementation-level choices this reproduction documents in DESIGN.md
 * (work-conserving pooling via soft timers, candidate search depth).
 * Run on a representative subset so the binary stays quick.
 */

#include <iostream>

#include "bench/bench_common.hh"

namespace {

using namespace netcrafter;

config::SystemConfig
stitchOnly()
{
    return config::stitchingConfig(false);
}

config::SystemConfig
trimOnly()
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.netcrafter.trimming = true;
    cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
    return cfg;
}

config::SystemConfig
seqOnly()
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.netcrafter.sequencing = config::SequencingMode::PrioritizePtw;
    return cfg;
}

config::SystemConfig
trimPlusSeq()
{
    config::SystemConfig cfg = trimOnly();
    cfg.netcrafter.sequencing = config::SequencingMode::PrioritizePtw;
    return cfg;
}

config::SystemConfig
shallowSearch()
{
    config::SystemConfig cfg = config::netcrafterConfig();
    cfg.netcrafter.stitchSearchDepth = 4;
    return cfg;
}

config::SystemConfig
smallClusterQueue()
{
    config::SystemConfig cfg = config::netcrafterConfig();
    cfg.netcrafter.clusterQueueEntries = 128;
    return cfg;
}

} // namespace

int
main()
{
    using namespace netcrafter;
    bench::banner("Ablation",
                  "mechanism combinations and implementation knobs");

    const std::vector<std::string> apps = {"GUPS", "MT", "SPMV",
                                           "SYR2K", "VGG16"};
    struct Point
    {
        const char *label;
        config::SystemConfig cfg;
    };
    const std::vector<Point> points = {
        {"stitch", stitchOnly()},
        {"trim", trimOnly()},
        {"seq", seqOnly()},
        {"trim+seq", trimPlusSeq()},
        {"full", config::netcrafterConfig()},
        {"full,depth4", shallowSearch()},
        {"full,CQ128", smallClusterQueue()},
    };

    std::vector<std::string> headers = {"app"};
    for (const auto &p : points)
        headers.push_back(p.label);
    harness::Table table(headers);

    std::vector<std::vector<double>> speedups(points.size());
    for (const auto &app : apps) {
        auto base = bench::run(app, config::baselineConfig());
        std::vector<std::string> row{app};
        for (std::size_t i = 0; i < points.size(); ++i) {
            auto r = bench::run(app, points[i].cfg);
            speedups[i].push_back(bench::speedup(base, r));
            row.push_back(harness::Table::fmt(speedups[i].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\ngeomean:";
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::cout << "  " << points[i].label << " "
                  << harness::Table::fmt(
                         harness::geomean(speedups[i]), 3);
    }
    std::cout << "\nNotes: trimming dominates for <=16B apps; "
                 "sequencing composes with it; a shallow candidate "
                 "search or a small Cluster Queue erodes stitching.\n";
    return 0;
}

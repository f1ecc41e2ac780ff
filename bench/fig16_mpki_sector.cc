/**
 * @file
 * Figure 16: L1 cache MPKI of NetCrafter's Trimming (sector fills only
 * for inter-cluster responses) versus the 16B sector-cache design
 * (sector fills everywhere). Trimming preserves more spatial locality
 * and so raises MPKI less.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 16",
                  "L1 MPKI: baseline vs Trimming vs 16B sector cache");

    harness::Table table(
        {"app", "baseline", "Trimming", "SectorCache16B"});

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        config::SystemConfig trim_cfg = config::baselineConfig();
        trim_cfg.netcrafter.trimming = true;
        trim_cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
        auto trim = bench::run(app, trim_cfg);
        auto sector = bench::run(app, config::sectorCacheConfig(16));

        table.addRow({app, harness::Table::fmt(base.l1Mpki, 1),
                      harness::Table::fmt(trim.l1Mpki, 1),
                      harness::Table::fmt(sector.l1Mpki, 1)});
    }
    table.print(std::cout);
    std::cout << "\n(paper: sector cache's MPKI exceeds Trimming's for "
                 "apps with coarse-grained reuse, since Trimming only "
                 "sectors inter-cluster fills)\n";
    return 0;
}

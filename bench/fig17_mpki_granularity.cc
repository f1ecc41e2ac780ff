/**
 * @file
 * Figure 17: L1 MPKI on large GEMM kernels as a function of trimming /
 * sector granularity (4, 8, 16 bytes), comparing NetCrafter's selective
 * Trimming against the all-trimming (sector-everywhere) approach.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 17",
                  "GEMM L1 MPKI vs trim/sector granularity");

    harness::Table table({"granularity", "Trimming (NetCrafter)",
                          "All-trimming (sector cache)"});

    auto base = bench::run("GEMM", config::baselineConfig());

    for (std::uint32_t g : {4u, 8u, 16u}) {
        config::SystemConfig trim_cfg = config::baselineConfig();
        trim_cfg.netcrafter.trimming = true;
        trim_cfg.netcrafter.trimGranularity = g;
        trim_cfg.l1FillMode = config::L1FillMode::TrimInterCluster;
        auto trim = bench::run("GEMM", trim_cfg);

        auto sector = bench::run("GEMM", config::sectorCacheConfig(g));

        table.addRow({std::to_string(g) + "B",
                      harness::Table::fmt(trim.l1Mpki, 1),
                      harness::Table::fmt(sector.l1Mpki, 1)});
    }
    table.print(std::cout);
    std::cout << "\nbaseline (full-line) MPKI: "
              << harness::Table::fmt(base.l1Mpki, 1)
              << "\n(paper: Trimming's MPKI stays below all-trimming at "
                 "every granularity; both rise as sectors shrink)\n";
    return 0;
}

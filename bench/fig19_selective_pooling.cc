/**
 * @file
 * Figure 19: Stitching + *Selective* Flit Pooling (PTW-related flits
 * exempt) across 32-128 cycle windows. Selectivity removes the
 * latency-criticality penalty that hurt PR/SYR2K in Figure 18.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 19",
                  "Stitching + Selective Flit Pooling sweep");

    const std::vector<Tick> windows = {32, 64, 96, 128};
    std::vector<std::string> headers = {"app", "stitch only"};
    for (Tick w : windows)
        headers.push_back("selpool " + std::to_string(w));
    harness::Table table(headers);

    std::vector<std::vector<double>> speedups(windows.size() + 1);

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        std::vector<std::string> row{app};

        auto alone = bench::run(app, config::stitchingConfig(false));
        speedups[0].push_back(bench::speedup(base, alone));
        row.push_back(harness::Table::fmt(speedups[0].back(), 3));

        for (std::size_t i = 0; i < windows.size(); ++i) {
            auto pooled = bench::run(
                app, config::stitchingConfig(true, true, windows[i]));
            speedups[i + 1].push_back(bench::speedup(base, pooled));
            row.push_back(
                harness::Table::fmt(speedups[i + 1].back(), 3));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);

    std::cout << "\ngeomean: stitch-only "
              << harness::Table::fmt(harness::geomean(speedups[0]), 3);
    for (std::size_t i = 0; i < windows.size(); ++i) {
        std::cout << ", selpool-" << windows[i] << " "
                  << harness::Table::fmt(
                         harness::geomean(speedups[i + 1]), 3);
    }
    std::cout << "\n(paper: selective pooling at 32 cycles performs "
                 "best and removes the Figure 18 degradations)\n";
    return 0;
}

/**
 * @file
 * Figure 18: Stitching alone and Stitching + (non-selective) Flit
 * Pooling across pooling windows of 32-128 cycles, normalized to the
 * baseline. The paper finds 32 cycles the sweet spot, with some apps
 * (e.g. PR) degrading because PTW-critical flits also get pooled.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 18",
                  "Stitching + Flit Pooling sweep (non-selective)");

    const std::vector<Tick> windows = {32, 64, 96, 128};
    std::vector<std::string> headers = {"app", "stitch only"};
    for (Tick w : windows)
        headers.push_back("pool " + std::to_string(w));
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
                app, config::stitchingConfig(true, false, windows[i]));
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
        std::cout << ", pool-" << windows[i] << " "
                  << harness::Table::fmt(
                         harness::geomean(speedups[i + 1]), 3);
    }
    std::cout << "\n(paper: 32 cycles is the sweet spot; larger windows "
                 "add latency for no stitching gain)\n";
    return 0;
}

/**
 * @file
 * Figure 15: average inter-GPU-cluster memory access latency under the
 * baseline versus full NetCrafter — traffic reduction translates into
 * lower queueing latency.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 15",
                  "inter-cluster read latency: baseline vs NetCrafter");

    harness::Table table({"app", "baseline (cyc)", "NetCrafter (cyc)",
                          "ratio"});
    std::vector<double> ratios;

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        auto nc = bench::run(app, bench::fullNetcrafter());
        if (base.interReads == 0) {
            table.addRow({app, "-", "-", "-"});
            continue;
        }
        const double ratio =
            nc.avgInterReadLatency / base.avgInterReadLatency;
        ratios.push_back(ratio);
        table.addRow({app,
                      harness::Table::fmt(base.avgInterReadLatency, 0),
                      harness::Table::fmt(nc.avgInterReadLatency, 0),
                      harness::Table::fmt(ratio)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean latency ratio (NetCrafter / baseline): "
              << harness::Table::fmt(harness::geomean(ratios))
              << "  (paper: below 1 for bandwidth-bound apps)\n";
    return 0;
}

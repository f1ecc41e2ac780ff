/**
 * @file
 * Figure 5: average inter-GPU-cluster memory access latency of the
 * ideal configuration normalized to the non-uniform baseline (lower is
 * better; the paper shows large reductions for congested apps).
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 5",
                  "inter-cluster read latency, ideal normalized to "
                  "non-uniform");

    harness::Table table({"app", "baseline (cyc)", "ideal (cyc)",
                          "ideal / baseline"});
    std::vector<double> ratios;

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        auto ideal = bench::run(app, config::idealConfig());
        if (base.interReads == 0) {
            table.addRow({app, "-", "-", "- (no inter-cluster reads)"});
            continue;
        }
        const double ratio =
            ideal.avgInterReadLatency / base.avgInterReadLatency;
        ratios.push_back(ratio);
        table.addRow({app,
                      harness::Table::fmt(base.avgInterReadLatency, 0),
                      harness::Table::fmt(ideal.avgInterReadLatency, 0),
                      harness::Table::fmt(ratio)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean latency ratio: "
              << harness::Table::fmt(harness::geomean(ratios))
              << "  (paper: well below 1 for congested apps)\n";
    return 0;
}

/**
 * @file
 * Figure 4: utilization of the inter-GPU-cluster network under the
 * non-uniform baseline versus the ideal configuration. High utilization
 * on the lower-bandwidth links signals congestion.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 4",
                  "inter-cluster network utilization, baseline vs ideal");

    harness::Table table({"app", "non-uniform util", "ideal util"});
    double sum_base = 0, sum_ideal = 0;

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        auto ideal = bench::run(app, config::idealConfig());
        sum_base += base.interUtilization;
        sum_ideal += ideal.interUtilization;
        table.addRow({app, harness::Table::pct(base.interUtilization),
                      harness::Table::pct(ideal.interUtilization)});
    }
    table.print(std::cout);
    const double n = static_cast<double>(bench::apps().size());
    std::cout << "\nmean utilization: non-uniform "
              << harness::Table::pct(sum_base / n) << ", ideal "
              << harness::Table::pct(sum_ideal / n)
              << "  (paper: high on lower-bandwidth links, low when "
                 "bandwidth is plentiful)\n";
    return 0;
}

/**
 * @file
 * Figure 8: performance after prioritizing read-PTW-related accesses on
 * the lower-bandwidth network versus prioritizing an equal fraction of
 * data accesses. The paper shows PTW prioritization helps while data
 * prioritization hurts — Observation 3.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 8",
                  "prioritizing PTW-related vs an equal share of data "
                  "accesses");

    harness::Table table({"app", "prioritize PTW", "prioritize data"});
    std::vector<double> ptw_speedups, data_speedups;

    for (const auto &app : bench::apps()) {
        // Reference: the plain baseline whose inter-cluster egress is a
        // FIFO output buffer, as in the paper's characterization.
        auto base = bench::run(app, config::baselineConfig());

        config::SystemConfig ptw_cfg = config::baselineConfig();
        ptw_cfg.netcrafter.sequencing =
            config::SequencingMode::PrioritizePtw;
        auto ptw = bench::run(app, ptw_cfg);

        config::SystemConfig data_cfg = config::baselineConfig();
        data_cfg.netcrafter.sequencing =
            config::SequencingMode::PrioritizeData;
        data_cfg.netcrafter.priorityDataFraction =
            base.ptwByteFraction; // "same fraction" as PTW traffic
        auto data = bench::run(app, data_cfg);

        const double s_ptw = bench::speedup(base, ptw);
        const double s_data = bench::speedup(base, data);
        ptw_speedups.push_back(s_ptw);
        data_speedups.push_back(s_data);
        table.addRow({app, harness::Table::fmt(s_ptw, 3),
                      harness::Table::fmt(s_data, 3)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean: prioritize-PTW "
              << harness::Table::fmt(harness::geomean(ptw_speedups), 3)
              << "x, prioritize-data "
              << harness::Table::fmt(harness::geomean(data_speedups), 3)
              << "x  (paper: PTW > 1 > data)\n";
    return 0;
}

/**
 * @file
 * Figure 12: percentage of flits stitched before and after applying
 * Flit Pooling (32 cycles) on top of Stitching. Pooling raises the
 * stitched fraction by giving candidates time to arrive.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 12",
                  "flits stitched: Stitching alone vs + Flit Pooling");

    harness::Table table({"app", "stitch only", "stitch + pooling(32)"});
    double sum_alone = 0, sum_pool = 0;
    int n = 0;

    for (const auto &app : bench::apps()) {
        auto alone = bench::run(app, config::stitchingConfig(false));
        auto pooled = bench::run(
            app, config::stitchingConfig(true, false, 32));
        if (alone.interFlits == 0) {
            table.addRow({app, "-", "-"});
            continue;
        }
        sum_alone += alone.stitchedFraction;
        sum_pool += pooled.stitchedFraction;
        ++n;
        table.addRow({app, harness::Table::pct(alone.stitchedFraction),
                      harness::Table::pct(pooled.stitchedFraction)});
    }
    table.print(std::cout);
    if (n > 0) {
        std::cout << "\nmean stitched fraction: alone "
                  << harness::Table::pct(sum_alone / n) << ", + pooling "
                  << harness::Table::pct(sum_pool / n)
                  << "  (paper: pooling significantly raises the "
                     "stitched share)\n";
    }
    return 0;
}

/**
 * @file
 * Figure 21: Stitching + Selective Flit Pooling with 8-byte versus
 * 16-byte flits. Smaller flits leave less padding to reclaim, so
 * stitching's benefit shrinks but remains positive.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 21",
                  "Stitching + Selective Flit Pooling: 8B vs 16B flits");

    harness::Table table({"app", "16B flits", "8B flits"});
    std::vector<double> s16, s8;

    for (const auto &app : bench::apps()) {
        // Each flit size gets its own baseline: flit size changes the
        // baseline too (segmentation differs).
        config::SystemConfig base16 = config::baselineConfig();
        config::SystemConfig base8 = config::baselineConfig();
        base8.flitBytes = 8;

        config::SystemConfig nc16 = bench::stitchSelective32();
        config::SystemConfig nc8 = bench::stitchSelective32();
        nc8.flitBytes = 8;

        auto b16 = bench::run(app, base16);
        auto v16 = bench::run(app, nc16);
        auto b8 = bench::run(app, base8);
        auto v8 = bench::run(app, nc8);

        s16.push_back(bench::speedup(b16, v16));
        s8.push_back(bench::speedup(b8, v8));
        table.addRow({app, harness::Table::fmt(s16.back(), 3),
                      harness::Table::fmt(s8.back(), 3)});
    }
    table.print(std::cout);
    std::cout << "\ngeomean: 16B "
              << harness::Table::fmt(harness::geomean(s16), 3)
              << "x, 8B "
              << harness::Table::fmt(harness::geomean(s8), 3)
              << "x  (paper: smaller flits shrink but do not erase the "
                 "benefit)\n";
    return 0;
}

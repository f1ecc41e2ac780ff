/**
 * @file
 * Figure 7: categorization of inter-GPU-cluster read requests by the
 * number of cache-line bytes the requesting wavefront actually needs.
 * The paper shows many applications need <=16 bytes of the 64B line —
 * the opportunity Trimming exploits.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 7",
                  "inter-cluster read requests by bytes needed from the "
                  "64B line (baseline)");

    harness::Table table({"app", "<=16B", "17-32B", "33-48B", "49-63B",
                          "64B"});
    double sum16 = 0;
    int n = 0;

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        if (base.interReads == 0 && base.bytesNeededFrac[0] == 0 &&
            base.bytesNeededFrac[4] == 0) {
            table.addRow({app, "-", "-", "-", "-", "-"});
            continue;
        }
        sum16 += base.bytesNeededFrac[0];
        ++n;
        std::vector<std::string> row{app};
        for (double f : base.bytesNeededFrac)
            row.push_back(harness::Table::pct(f));
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    if (n > 0) {
        std::cout << "\nmean fraction of requests needing <=16B: "
                  << harness::Table::pct(sum16 / n)
                  << "  (paper: large for random/gather/scatter apps, "
                     "near zero for adjacent/DNN)\n";
    }
    return 0;
}

/**
 * @file
 * Figure 6: distribution of lower-bandwidth-network flits by padding
 * level under the baseline. The paper finds on average 42% of flits
 * carry either ~25% or ~75% padded (redundant) bytes — the headroom
 * Stitching exploits.
 */

#include <iostream>

#include "bench/bench_common.hh"

int
main()
{
    using namespace netcrafter;
    bench::banner("Figure 6",
                  "flits with ~25% / ~75% padding on the inter-cluster "
                  "network (baseline)");

    harness::Table table({"app", "~25% padded", "~75% padded",
                          "25%+75% total"});
    double sum = 0;
    int n = 0;

    for (const auto &app : bench::apps()) {
        auto base = bench::run(app, config::baselineConfig());
        if (base.interFlits == 0) {
            table.addRow({app, "-", "-", "- (no inter-cluster flits)"});
            continue;
        }
        sum += base.paddedFlitFraction;
        ++n;
        table.addRow({app,
                      harness::Table::pct(base.quarterPaddedFraction),
                      harness::Table::pct(
                          base.threeQuarterPaddedFraction),
                      harness::Table::pct(base.paddedFlitFraction)});
    }
    table.print(std::cout);
    if (n > 0) {
        std::cout << "\nmean fraction of flits 25%- or 75%-padded: "
                  << harness::Table::pct(sum / n)
                  << "  (paper: ~42% average)\n";
    }
    return 0;
}

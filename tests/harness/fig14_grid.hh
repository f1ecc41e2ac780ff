/**
 * @file
 * Test helper: the Figure 14 grid as test inputs — every Table 3
 * application at the baseline and at full NetCrafter, 30 points in
 * all. It is the grid GoldenCensus pins and the benchmark's grid
 * workloads run, so the determinism tests that loop over it cover the
 * same points the headline figure and the benchmark simulate.
 */

#ifndef NETCRAFTER_TESTS_HARNESS_FIG14_GRID_HH
#define NETCRAFTER_TESTS_HARNESS_FIG14_GRID_HH

#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/exp/figures.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::test {

struct Fig14Point
{
    std::string app;
    config::SystemConfig config;
    /** "base/GUPS" or "full/GUPS", for failure messages. */
    std::string label;
};

/** Baseline points first, then full NetCrafter, apps in Table 3 order. */
inline std::vector<Fig14Point>
fig14Grid()
{
    std::vector<Fig14Point> grid;
    for (const bool full : {false, true}) {
        for (const std::string &app : workloads::workloadNames()) {
            grid.push_back({app,
                            full ? exp::fullNetcrafter()
                                 : config::baselineConfig(),
                            (full ? "full/" : "base/") + app});
        }
    }
    return grid;
}

} // namespace netcrafter::test

#endif // NETCRAFTER_TESTS_HARNESS_FIG14_GRID_HH

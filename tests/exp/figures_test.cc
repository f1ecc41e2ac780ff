/**
 * @file
 * Tests for the figure registry: it names every paper artifact once, in
 * paper order, and a figure's text depends only on its results, not on
 * the worker count or on what a shared cache already holds.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/exp/figures.hh"
#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::exp {
namespace {

/** Small: fig08 and fig17 simulate three times; every point still does
 *  real work at this scale. */
constexpr double kScale = 0.01;

SchedulerOptions
options(unsigned workers)
{
    SchedulerOptions opts;
    opts.workers = workers;
    opts.run.scale = kScale;
    return opts;
}

std::string
render(const std::string &name, Scheduler &scheduler)
{
    const Figure *fig = findFigure(name);
    EXPECT_NE(fig, nullptr) << name;
    if (fig == nullptr)
        return {};
    std::ostringstream out;
    FigureContext ctx{scheduler, out};
    fig->run(ctx);
    return out.str();
}

TEST(FigureRegistry, HoldsEveryArtifactOnceInPaperOrder)
{
    const std::vector<std::string> expected = {
        "table1", "fig03", "fig04", "fig05", "fig06", "fig07", "fig08",
        "fig09",  "fig12", "table3", "fig14", "fig15", "fig16", "fig17",
        "fig18",  "fig19", "fig20", "fig21", "fig22", "ablation"};
    std::vector<std::string> names;
    std::set<std::string> unique;
    for (const Figure &fig : figureRegistry()) {
        names.push_back(fig.name);
        unique.insert(fig.name);
        EXPECT_NE(fig.caption, nullptr) << fig.name;
        EXPECT_NE(fig.run, nullptr) << fig.name;
    }
    EXPECT_EQ(names, expected);
    EXPECT_EQ(unique.size(), names.size()) << "duplicate figure name";
}

TEST(FigureRegistry, FindFigureRoundTripsEveryName)
{
    for (const Figure &fig : figureRegistry()) {
        const Figure *found = findFigure(fig.name);
        ASSERT_NE(found, nullptr) << fig.name;
        EXPECT_EQ(found, &fig);
    }
    EXPECT_EQ(findFigure("fig99"), nullptr);
    EXPECT_EQ(findFigure(""), nullptr);
    EXPECT_EQ(findFigure("FIG03"), nullptr);
}

TEST(FigureRegistry, TextIsTheSameAtAnyWorkerCountAndCacheState)
{
    // fig09 simulates fig08's baseline points, so fig08 (the two-phase
    // sweep) then reads them from the cache; each later figure runs
    // through a cache every earlier one warmed.
    ResultCache warm_cache;
    Scheduler warm(options(3), &warm_cache);
    render("fig09", warm);
    const std::uint64_t warm_hits = warm_cache.hits();

    for (const char *name : {"fig08", "fig17", "table1", "table3"}) {
        ResultCache serial_cache, parallel_cache;
        Scheduler serial(options(1), &serial_cache);
        Scheduler parallel(options(3), &parallel_cache);
        const std::string text = render(name, serial);
        EXPECT_NE(text.find("===="), std::string::npos) << name;
        EXPECT_EQ(render(name, parallel), text)
            << name << " differs at 3 workers";
        EXPECT_EQ(render(name, warm), text)
            << name << " differs through a warmed cache";
    }
    EXPECT_GE(warm_cache.hits(),
              warm_hits + workloads::workloadNames().size())
        << "fig08 did not reuse fig09's baseline points";
}

} // namespace
} // namespace netcrafter::exp

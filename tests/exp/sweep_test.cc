/** @file Tests for the declarative SweepSpec and the serve-curve load
 *  range. */

#include <gtest/gtest.h>

#include <vector>

#include "src/exp/serve_curve.hh"
#include "src/exp/sweep.hh"

namespace netcrafter::exp {
namespace {

TEST(SweepSpec, AddAndLookup)
{
    SweepSpec spec("s");
    spec.add("base/GUPS", "GUPS", config::baselineConfig());
    spec.add("ideal/GUPS", "GUPS", config::idealConfig(), 0.5);

    EXPECT_EQ(spec.size(), 2u);
    EXPECT_EQ(spec.indexOf("base/GUPS"), 0u);
    EXPECT_EQ(spec.indexOf("ideal/GUPS"), 1u);
    EXPECT_TRUE(spec.contains("base/GUPS"));
    EXPECT_FALSE(spec.contains("base/MT"));
    EXPECT_EQ(spec.jobs()[1].workload, "GUPS");
    EXPECT_DOUBLE_EQ(spec.jobs()[1].scale, 0.5);
}

TEST(SweepSpec, GridCrossesConfigsAndWorkloads)
{
    SweepSpec spec("grid");
    spec.addGrid({"GUPS", "MT"}, {{"base", config::baselineConfig()},
                                  {"ideal", config::idealConfig()}});

    EXPECT_EQ(spec.size(), 4u);
    EXPECT_TRUE(spec.contains("base/GUPS"));
    EXPECT_TRUE(spec.contains("base/MT"));
    EXPECT_TRUE(spec.contains("ideal/GUPS"));
    EXPECT_TRUE(spec.contains("ideal/MT"));
    // Grid order: all workloads of a config before the next config.
    EXPECT_EQ(spec.jobs()[0].name, "base/GUPS");
    EXPECT_EQ(spec.jobs()[1].name, "base/MT");
    EXPECT_EQ(spec.jobs()[2].name, "ideal/GUPS");
}

TEST(SweepSpecDeathTest, DuplicateNameIsFatal)
{
    SweepSpec spec("dup");
    spec.add("x", "GUPS", config::baselineConfig());
    EXPECT_EXIT(spec.add("x", "MT", config::baselineConfig()),
                testing::ExitedWithCode(1), "duplicate job name");
}

TEST(SweepSpecDeathTest, UnknownNameIsFatal)
{
    SweepSpec spec("s");
    EXPECT_EXIT(spec.indexOf("missing"), testing::ExitedWithCode(1),
                "no job named");
}

TEST(ServeCurveLoads, StepsInclusivelyByIndex)
{
    ServeCurveSpec spec;
    spec.loadStart = 2;
    spec.loadStop = 6;
    spec.loadStep = 2;
    EXPECT_EQ(serveCurveLoads(spec), (std::vector<double>{2, 4, 6}));

    // A step longer than the range still yields the start point.
    spec.loadStart = 1;
    spec.loadStop = 1;
    spec.loadStep = 5;
    EXPECT_EQ(serveCurveLoads(spec), (std::vector<double>{1}));
}

TEST(ServeCurveLoadsDeathTest, CountBeyondSizeTIsFatal)
{
    // (1e300 - 1) / 1e-300 overflows to infinity: no point count.
    ServeCurveSpec spec;
    spec.loadStart = 1;
    spec.loadStop = 1e300;
    spec.loadStep = 1e-300;
    EXPECT_EXIT(serveCurveLoads(spec), testing::ExitedWithCode(1),
                "start=1 stop=1e\\+300 step=1e-300");
}

} // namespace
} // namespace netcrafter::exp

/**
 * @file
 * Tests for the experiment harness utilities and the NETCRAFTER_*
 * environment overlay (its validated parsers, field mapping and
 * flag-over-environment precedence).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <set>
#include <sstream>
#include <type_traits>

#include "src/harness/env_overlay.hh"
#include "src/harness/runner.hh"
#include "src/harness/table.hh"
#include "tests/harness/scoped_env.hh"

namespace netcrafter::harness {
namespace {

TEST(Table, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"x", "1"});
    t.addRow({"longer-name", "22"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("longer-name"), std::string::npos);
    // Separator line present.
    EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Table, ShortRowsPadded)
{
    Table t({"a", "b", "c"});
    t.addRow({"only"});
    std::ostringstream os;
    t.print(os); // must not crash
    EXPECT_NE(os.str().find("only"), std::string::npos);
}

TEST(Table, FormatHelpers)
{
    EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
    EXPECT_EQ(Table::fmt(2.0, 0), "2");
    EXPECT_EQ(Table::pct(0.42, 1), "42.0%");
    EXPECT_EQ(Table::pct(1.0, 0), "100%");
}

TEST(Geomean, KnownValues)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, EmptyInputIsZero)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean(std::vector<double>{}), 0.0);
}

TEST(Geomean, SingleElementIsIdentity)
{
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({0.25}), 0.25);
    // log/exp round-trip: exact to ~1e-14 relative error.
    EXPECT_NEAR(geomean({1e300}) / 1e300, 1.0, 1e-13);
}

TEST(Geomean, LargeProductsDoNotOverflow)
{
    // 100 factors of 1e30 would overflow a naive product; the log-sum
    // implementation must not.
    std::vector<double> xs(100, 1e30);
    EXPECT_NEAR(geomean(xs) / 1e30, 1.0, 1e-13);
}

TEST(Geomean, NonPositiveDies)
{
    EXPECT_DEATH(geomean({1.0, 0.0}), "non-positive");
    EXPECT_DEATH(geomean({-2.0}), "non-positive");
}

/** Every NETCRAFTER_* run variable the overlay reads. */
constexpr const char *kRunVariables[] = {
    "NETCRAFTER_SCALE",         "NETCRAFTER_SHARDS",
    "NETCRAFTER_JOBS",          "NETCRAFTER_THREADS",
    "NETCRAFTER_STEAL",         "NETCRAFTER_STEAL_MIN_BACKLOG",
    "NETCRAFTER_FIDELITY",      "NETCRAFTER_TRACE_OUT",
    "NETCRAFTER_TRACE_LEVEL",   "NETCRAFTER_SAMPLE_INTERVAL",
    "NETCRAFTER_SERVE_LOAD",    "NETCRAFTER_SERVE_ARRIVAL",
    "NETCRAFTER_SERVE_MIX",     "NETCRAFTER_SERVE_WARMUP",
    "NETCRAFTER_SERVE_MEASURE", "NETCRAFTER_SERVE_SEED",
};

/** A guard with every run variable unset. */
void
clearRunVariables(test::ScopedEnv &env)
{
    for (const char *var : kRunVariables)
        env.unset(var);
}

/** Run flags parsed from @p args as if they followed argv[0]. */
RunFlags
flagsFrom(std::vector<std::string> args)
{
    std::vector<char *> argv{nullptr};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    RunFlags flags;
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i)
        EXPECT_TRUE(flags.consume(argc, argv.data(), i)) << argv[i];
    return flags;
}

TEST(EnvScale, DefaultsToOne)
{
    test::ScopedEnv env;
    env.unset("NETCRAFTER_SCALE");
    RunSpec spec;
    overlayEnv(spec);
    EXPECT_EQ(spec.scale, 1.0);

    // The variable multiplies whatever scale the caller chose.
    env.set("NETCRAFTER_SCALE", "0.5");
    spec.scale = 0.2;
    overlayEnv(spec);
    EXPECT_DOUBLE_EQ(spec.scale, 0.1);
}

TEST(EnvOverlay, EveryVariableLandsInItsField)
{
    test::ScopedEnv env;
    env.set("NETCRAFTER_SCALE", "0.25");
    env.set("NETCRAFTER_SHARDS", "2");
    env.set("NETCRAFTER_JOBS", "3");
    env.set("NETCRAFTER_THREADS", "1");
    env.set("NETCRAFTER_STEAL", "on");
    env.set("NETCRAFTER_STEAL_MIN_BACKLOG", "64");
    env.set("NETCRAFTER_FIDELITY", "hybrid");
    env.set("NETCRAFTER_TRACE_OUT", "/tmp/traces");
    env.set("NETCRAFTER_TRACE_LEVEL", "links");
    env.set("NETCRAFTER_SAMPLE_INTERVAL", "500");
    env.set("NETCRAFTER_SERVE_LOAD", "4.5");
    env.set("NETCRAFTER_SERVE_ARRIVAL", "bursty");
    env.set("NETCRAFTER_SERVE_MIX", "1:2:1");
    env.set("NETCRAFTER_SERVE_WARMUP", "1500");
    env.set("NETCRAFTER_SERVE_MEASURE", "9000");
    env.set("NETCRAFTER_SERVE_SEED", "77");

    RunSpec spec;
    unsigned jobs = 0;
    overlayEnv(spec, {}, &jobs);
    EXPECT_EQ(spec.scale, 0.25);
    EXPECT_EQ(spec.shards, 2u);
    EXPECT_EQ(jobs, 3u);
    EXPECT_EQ(spec.exec.threads, 1u);
    EXPECT_TRUE(spec.exec.steal);
    EXPECT_EQ(spec.exec.stealMinBacklog, 64u);
    EXPECT_EQ(spec.fidelity, flow::Fidelity::Hybrid);
    EXPECT_EQ(spec.trace.outDir, "/tmp/traces");
    EXPECT_EQ(spec.trace.level, obs::TraceLevel::Links);
    EXPECT_EQ(spec.trace.sampleInterval, 500u);
    EXPECT_EQ(spec.serve.offeredLoad, 4.5);
    EXPECT_EQ(spec.serve.arrival, serve::ArrivalKind::Bursty);
    EXPECT_EQ(spec.serve.mix.weight[1], 2.0);
    EXPECT_EQ(spec.serve.warmupTicks, 1500u);
    EXPECT_EQ(spec.serve.measureTicks, 9000u);
    EXPECT_EQ(spec.serve.seed, 77u);
    // The caller decides whether serving runs at all.
    EXPECT_FALSE(spec.serve.enabled);
}

TEST(EnvOverlay, UnsetVariablesLeaveTheSpecAlone)
{
    test::ScopedEnv env;
    clearRunVariables(env);
    RunSpec spec;
    spec.shards = 3;
    spec.fidelity = flow::Fidelity::Flow;
    unsigned jobs = 5;
    overlayEnv(spec, {}, &jobs);
    EXPECT_EQ(spec.scale, 1.0);
    EXPECT_EQ(spec.shards, 3u);
    EXPECT_EQ(jobs, 5u);
    EXPECT_EQ(spec.fidelity, flow::Fidelity::Flow);
    EXPECT_FALSE(spec.trace.enabled());
}

TEST(EnvOverlay, FlagsOverrideTheEnvironment)
{
    test::ScopedEnv env;
    clearRunVariables(env);
    env.set("NETCRAFTER_SCALE", "0.5");
    env.set("NETCRAFTER_SHARDS", "2");
    env.set("NETCRAFTER_JOBS", "3");
    env.set("NETCRAFTER_FIDELITY", "flow");
    env.set("NETCRAFTER_TRACE_OUT", "/env");
    env.set("NETCRAFTER_TRACE_LEVEL", "links");
    env.set("NETCRAFTER_SAMPLE_INTERVAL", "100");
    env.set("NETCRAFTER_SERVE_ARRIVAL", "uniform");

    RunFlags flags = flagsFrom(
        {"--jobs", "7", "--shards", "4", "--fidelity", "cycle",
         "--trace-out", "/flag", "--trace-level", "full",
         "--sample-interval", "250"});
    flags.set("NETCRAFTER_SCALE", "--scale", "0.125");
    flags.set("NETCRAFTER_SERVE_ARRIVAL", "--arrival", "bursty");

    RunSpec spec;
    unsigned jobs = 0;
    overlayEnv(spec, flags, &jobs);
    EXPECT_EQ(spec.scale, 0.125);
    EXPECT_EQ(spec.shards, 4u);
    EXPECT_EQ(jobs, 7u);
    EXPECT_EQ(spec.fidelity, flow::Fidelity::Cycle);
    EXPECT_EQ(spec.trace.outDir, "/flag");
    EXPECT_EQ(spec.trace.level, obs::TraceLevel::Full);
    EXPECT_EQ(spec.trace.sampleInterval, 250u);
    EXPECT_EQ(spec.serve.arrival, serve::ArrivalKind::Bursty);
}

TEST(EnvOverlay, OutputOrSamplingWithoutALevelImpliesPackets)
{
    test::ScopedEnv env;
    clearRunVariables(env);
    env.set("NETCRAFTER_TRACE_OUT", "/traces");
    RunSpec from_env;
    overlayEnv(from_env);
    EXPECT_EQ(from_env.trace.level, obs::TraceLevel::Packets);

    // A named tier wins, whether it came from a flag or the variable.
    env.set("NETCRAFTER_TRACE_LEVEL", "off");
    RunSpec named;
    overlayEnv(named);
    EXPECT_EQ(named.trace.level, obs::TraceLevel::Off);

    env.unset("NETCRAFTER_TRACE_OUT");
    env.unset("NETCRAFTER_TRACE_LEVEL");
    RunSpec from_flag;
    overlayEnv(from_flag, flagsFrom({"--sample-interval", "1000"}));
    EXPECT_EQ(from_flag.trace.level, obs::TraceLevel::Packets);
}

TEST(EnvOverlayDeathTest, InvalidValueDiesNamingItsVariable)
{
    const std::pair<const char *, const char *> bad[] = {
        {"NETCRAFTER_SCALE", "0"},
        {"NETCRAFTER_SHARDS", "2x"},
        {"NETCRAFTER_JOBS", "-1"},
        {"NETCRAFTER_THREADS", "many"},
        {"NETCRAFTER_STEAL", "maybe"},
        {"NETCRAFTER_STEAL_MIN_BACKLOG", "0"},
        {"NETCRAFTER_FIDELITY", "warp"},
        {"NETCRAFTER_TRACE_LEVEL", "loud"},
        {"NETCRAFTER_SAMPLE_INTERVAL", "-5"},
        {"NETCRAFTER_SERVE_LOAD", "fast"},
        {"NETCRAFTER_SERVE_ARRIVAL", "gaussian"},
        {"NETCRAFTER_SERVE_MIX", "1:2"},
        {"NETCRAFTER_SERVE_WARMUP", "0"},
        {"NETCRAFTER_SERVE_MEASURE", "5k"},
        {"NETCRAFTER_SERVE_SEED", "-7"},
        // strtoull skips the space, then negates; overflow saturates.
        {"NETCRAFTER_SERVE_SEED", " -1"},
        {"NETCRAFTER_SERVE_SEED", "99999999999999999999"},
        {"NETCRAFTER_SERVE_MEASURE", "99999999999999999999"},
        {"NETCRAFTER_SAMPLE_INTERVAL", "99999999999999999999"},
    };
    for (const auto &[var, value] : bad) {
        test::ScopedEnv env;
        clearRunVariables(env);
        env.set(var, value);
        RunSpec spec;
        unsigned jobs = 0;
        EXPECT_EXIT(overlayEnv(spec, {}, &jobs),
                    testing::ExitedWithCode(1), var)
            << var << "=" << value;
    }
}

TEST(EnvOverlayDeathTest, InvalidFlagDiesNamingTheFlag)
{
    test::ScopedEnv env;
    clearRunVariables(env);
    RunSpec spec;
    unsigned jobs = 0;
    EXPECT_EXIT(overlayEnv(spec, flagsFrom({"--shards", "2x"}), &jobs),
                testing::ExitedWithCode(1), "--shards");
    EXPECT_EXIT(overlayEnv(spec, flagsFrom({"--jobs", "abc"}), &jobs),
                testing::ExitedWithCode(1), "--jobs");
    EXPECT_EXIT(overlayEnv(spec, flagsFrom({"--trace-level", "x"})),
                testing::ExitedWithCode(1), "--trace-level");
}

TEST(ParseJobsEnv, AcceptsZeroAndPositiveCounts)
{
    EXPECT_EQ(parseJobsEnv("0"), 0u);
    EXPECT_EQ(parseJobsEnv("1"), 1u);
    EXPECT_EQ(parseJobsEnv("16"), 16u);
}

TEST(ParseJobsEnvDeathTest, RejectsBadValues)
{
    // atoi used to turn -1 into 4294967295 workers and "abc" into
    // "all cores".
    for (const char *text : {"-1", "abc", "2x", "", "2.5"}) {
        EXPECT_EXIT(parseJobsEnv(text), testing::ExitedWithCode(1),
                    "NETCRAFTER_JOBS")
            << text;
    }
}

TEST(ParseExecEnv, AcceptsValidValues)
{
    EXPECT_EQ(parseThreadsEnv("0"), 0u);
    EXPECT_EQ(parseThreadsEnv("4"), 4u);
    EXPECT_TRUE(parseStealEnv("1"));
    EXPECT_TRUE(parseStealEnv("true"));
    EXPECT_FALSE(parseStealEnv("off"));
    EXPECT_EQ(parseStealMinBacklogEnv("1"), 1u);
    EXPECT_EQ(parseSampleIntervalEnv("0"), 0u);
    EXPECT_EQ(parseSampleIntervalEnv("5000"), 5000u);
}

TEST(ParseScaleEnv, AcceptsPositiveNumbers)
{
    EXPECT_DOUBLE_EQ(parseScaleEnv("1"), 1.0);
    EXPECT_DOUBLE_EQ(parseScaleEnv("0.05"), 0.05);
    EXPECT_DOUBLE_EQ(parseScaleEnv("2.5"), 2.5);
    EXPECT_DOUBLE_EQ(parseScaleEnv("1e-3"), 1e-3);
}

TEST(ParseScaleEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseScaleEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("1.5x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("-2"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("nan"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
    EXPECT_EXIT(parseScaleEnv("inf"), testing::ExitedWithCode(1),
                "NETCRAFTER_SCALE");
}

TEST(ParseShardsEnv, AcceptsPositiveIntegers)
{
    EXPECT_EQ(parseShardsEnv("1"), 1u);
    EXPECT_EQ(parseShardsEnv("4"), 4u);
    EXPECT_EQ(parseShardsEnv("64"), 64u);
}

TEST(ParseShardsEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseShardsEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("-2"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("4x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    EXPECT_EXIT(parseShardsEnv("2.5"), testing::ExitedWithCode(1),
                "NETCRAFTER_SHARDS");
    // strtol saturates, so absurd counts die instead of wrapping.
    EXPECT_EXIT(parseShardsEnv("99999999999999999999"),
                testing::ExitedWithCode(1), "NETCRAFTER_SHARDS");
}

TEST(ParseServeEnv, AcceptsValidValues)
{
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("4"), 4.0);
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("0.5"), 0.5);
    EXPECT_DOUBLE_EQ(parseServeLoadEnv("12.25"), 12.25);

    EXPECT_EQ(parseServeTicksEnv("1", "NETCRAFTER_SERVE_WARMUP"), 1u);
    EXPECT_EQ(parseServeTicksEnv("20000", "NETCRAFTER_SERVE_WARMUP"),
              20'000u);

    EXPECT_EQ(parseServeSeedEnv("0"), 0u);
    EXPECT_EQ(parseServeSeedEnv("12345"), 12'345u);
}

TEST(ParseServeLoadEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeLoadEnv("0"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("-4"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("4x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("nan"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
    EXPECT_EXIT(parseServeLoadEnv("inf"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_LOAD");
}

TEST(ParseServeTicksEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeTicksEnv("0", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
    EXPECT_EXIT(parseServeTicksEnv("-5", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
    EXPECT_EXIT(parseServeTicksEnv("abc", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("5k", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("", "NETCRAFTER_SERVE_WARMUP"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_WARMUP");
    EXPECT_EXIT(parseServeTicksEnv("2.5", "NETCRAFTER_SERVE_MEASURE"),
                testing::ExitedWithCode(1), "NETCRAFTER_SERVE_MEASURE");
}

TEST(ParseServeSeedEnvDeathTest, RejectsBadValues)
{
    EXPECT_EXIT(parseServeSeedEnv("-1"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv("abc"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv("7x"), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
    EXPECT_EXIT(parseServeSeedEnv(""), testing::ExitedWithCode(1),
                "NETCRAFTER_SERVE_SEED");
}

TEST(RunDeathTest, RejectsAScaleThatIsNotPositiveAndFinite)
{
    RunSpec spec;
    spec.workload = "GUPS";
    spec.config = config::baselineConfig();
    const auto dies = [&](double scale, const char *message) {
        spec.scale = scale;
        EXPECT_EXIT(run(spec), testing::ExitedWithCode(1), message);
    };
    dies(-3, "scale must be a positive finite number, got -3");
    dies(0, "scale must be a positive finite number, got 0");
    dies(std::nan(""), "scale must be a positive finite number, got -?nan");
    dies(HUGE_VAL, "scale must be a positive finite number, got inf");
    // Positive and finite, but the per-wavefront instruction count
    // overflows the kernel shape's 32 bits.
    dies(1e12, "GUPS: scale 1e\\+12 gives .* instructions per wavefront");

    spec.serve.enabled = true;
    dies(-3, "serving scale must be a positive finite number, got -3");
    dies(std::nan(""),
         "serving scale must be a positive finite number, got -?nan");
}

/** Change @p v so that it no longer equals its old value. */
template <typename T>
void
perturb(T &v)
{
    if constexpr (std::is_same_v<T, flow::Fidelity>)
        v = v == flow::Fidelity::Cycle ? flow::Fidelity::Hybrid
                                       : flow::Fidelity::Cycle;
    else
        v += 1;
}

void
perturb(ServeClassResult &c)
{
    perturb(c.p99);
}

template <typename T, std::size_t N>
void
perturb(std::array<T, N> &v)
{
    perturb(v[N - 1]);
}

TEST(SameMeasurement, DetectsAnyFieldDifference)
{
    // Every Measurement row of the metric table takes part in equality,
    // and no Diagnostic row does.
    const RunResult a;
    RunResult b;
    b.workload = "other";
    EXPECT_FALSE(sameMeasurement(a, b));

#define NC_METRIC(type, member, column, kind)                           \
    b = a;                                                              \
    perturb(b.member);                                                  \
    EXPECT_EQ(sameMeasurement(a, b),                                    \
              MetricKind::kind == MetricKind::Diagnostic)               \
        << #member;
#include "src/harness/run_metrics.def"
#undef NC_METRIC
}

TEST(MetricTable, ColumnsAreUniqueSnakeCase)
{
    std::set<std::string> columns = {"job", "workload", "config_digest",
                                     "scale"};
    const std::regex snake("[a-z0-9_]+");
    forEachMetric(RunResult{}, [&](const std::string &column,
                                   const auto &) {
        EXPECT_TRUE(std::regex_match(column, snake)) << column;
        EXPECT_TRUE(columns.insert(column).second)
            << "duplicate column " << column;
    });
}

} // namespace
} // namespace netcrafter::harness

/**
 * @file
 * Observability determinism: the trace artifacts (Chrome-trace JSON,
 * time-series CSV, lifecycle stats) for one (workload, config, scale)
 * point must be byte-identical whether the simulation ran on 1, 2, or 4
 * shards — and turning tracing on must not change the measurement.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/harness/runner.hh"
#include "src/obs/json_validate.hh"

namespace netcrafter {
namespace {

constexpr double kTinyScale = 0.34;

harness::RunResult
runAt(const std::string &app, const config::SystemConfig &cfg,
      unsigned shards, const obs::TraceOptions &trace = {},
      const sim::ExecPolicy &exec = {})
{
    harness::RunSpec spec;
    spec.workload = app;
    spec.config = cfg;
    spec.scale = kTinyScale;
    spec.shards = shards;
    spec.trace = trace;
    spec.exec = exec;
    return harness::run(spec);
}

config::SystemConfig
tinyMeshConfig()
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.cusPerGpu = 8;
    cfg.maxWavesPerCu = 4;
    cfg.numClusters = 4;
    cfg.gpusPerCluster = 1;
    return cfg;
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** The harness's trace-file naming scheme for one run. */
std::string
fileBase(const std::string &workload, const config::SystemConfig &cfg,
         double scale, unsigned shards)
{
    std::ostringstream base;
    base << workload << '-' << config::digestHex(cfg) << "-s" << scale
         << "-n" << shards;
    return base.str();
}

void
expectValidChromeTrace(const std::filesystem::path &path)
{
    std::string error;
    obs::JsonValue root;
    ASSERT_TRUE(obs::parseJson(slurp(path), root, &error))
        << path << ": " << error;
    obs::ChromeTraceSummary summary;
    ASSERT_TRUE(obs::validateChromeTrace(root, &error, &summary))
        << path << ": " << error;
    EXPECT_GT(summary.events, 0u) << path;
}

TEST(ObsDeterminism, TraceArtifactsAreShardInvariant)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "obs-determinism";
    std::filesystem::remove_all(dir);

    obs::TraceOptions trace;
    trace.level = obs::TraceLevel::Packets;
    trace.outDir = dir.string();
    trace.sampleInterval = 1000;

    const config::SystemConfig cfg = tinyMeshConfig();
    const std::string app = "GUPS";

    const harness::RunResult serial = runAt(app, cfg, 1, trace);
    const harness::RunResult two = runAt(app, cfg, 2, trace);
    const harness::RunResult four = runAt(app, cfg, 4, trace);

    // The measurement itself stays shard-invariant with tracing on.
    EXPECT_TRUE(sameMeasurement(serial, two));
    EXPECT_TRUE(sameMeasurement(serial, four));

    // Same records collected, none dropped (drops would break identity).
    EXPECT_GT(serial.traceRecords, 0u);
    EXPECT_EQ(serial.traceRecords, two.traceRecords);
    EXPECT_EQ(serial.traceRecords, four.traceRecords);
    EXPECT_EQ(serial.traceDropped, 0u);
    EXPECT_EQ(two.traceDropped, 0u);
    EXPECT_EQ(four.traceDropped, 0u);
    EXPECT_GT(serial.sampleRows, 0u);
    EXPECT_EQ(serial.sampleRows, two.sampleRows);

    // The sim-time artifacts are byte-identical across shard counts.
    const std::string base1 = fileBase(app, cfg, kTinyScale, 1);
    const std::string base2 = fileBase(app, cfg, kTinyScale, 2);
    const std::string base4 = fileBase(app, cfg, kTinyScale, 4);
    const std::string trace1 = slurp(dir / (base1 + ".trace.json"));
    EXPECT_FALSE(trace1.empty());
    EXPECT_EQ(trace1, slurp(dir / (base2 + ".trace.json")));
    EXPECT_EQ(trace1, slurp(dir / (base4 + ".trace.json")));

    const std::string series1 = slurp(dir / (base1 + ".timeseries.csv"));
    EXPECT_FALSE(series1.empty());
    EXPECT_EQ(series1, slurp(dir / (base2 + ".timeseries.csv")));
    EXPECT_EQ(series1, slurp(dir / (base4 + ".timeseries.csv")));

    const std::string stats1 = slurp(dir / (base1 + ".stats.json"));
    EXPECT_FALSE(stats1.empty());
    EXPECT_EQ(stats1, slurp(dir / (base2 + ".stats.json")));
    EXPECT_EQ(stats1, slurp(dir / (base4 + ".stats.json")));

    // Every emitted Chrome trace must satisfy the structural validator,
    // including the host-time lanes (never compared byte-for-byte: they
    // carry wall-clock timings).
    for (const std::string &base : {base1, base2, base4}) {
        expectValidChromeTrace(dir / (base + ".trace.json"));
        expectValidChromeTrace(dir / (base + ".host.trace.json"));
    }
}

TEST(ObsDeterminism, MergedTraceOrderSurvivesWorkStealing)
{
    // The merged sim-time trace is ordered by (tick, lane, sequence):
    // if work stealing could reorder event execution, the byte-for-byte
    // comparison here would catch it. Run the same 4-shard point with
    // stealing off, slurp the artifact, then rerun with stealing on
    // (multiplexed on fewer threads, so steals actually migrate units)
    // and demand the identical file.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "obs-steal";
    std::filesystem::remove_all(dir);

    obs::TraceOptions trace;
    trace.level = obs::TraceLevel::Packets;
    trace.outDir = dir.string();
    trace.sampleInterval = 1000;

    const config::SystemConfig cfg = tinyMeshConfig();
    const std::string app = "GUPS";
    const std::string base = fileBase(app, cfg, kTinyScale, 4);

    const harness::RunResult plain =
        runAt(app, cfg, 4, trace, sim::ExecPolicy{0, false, 1});
    const std::string trace_plain = slurp(dir / (base + ".trace.json"));
    const std::string series_plain =
        slurp(dir / (base + ".timeseries.csv"));
    ASSERT_FALSE(trace_plain.empty());

    // Same file name — the rerun overwrites, which is exactly what
    // lets us compare the two schedules byte for byte.
    const harness::RunResult stolen =
        runAt(app, cfg, 4, trace, sim::ExecPolicy{2, true, 1});
    EXPECT_TRUE(sameMeasurement(plain, stolen));
    EXPECT_EQ(plain.traceRecords, stolen.traceRecords);
    EXPECT_EQ(stolen.traceDropped, 0u);
    EXPECT_EQ(trace_plain, slurp(dir / (base + ".trace.json")));
    EXPECT_EQ(series_plain, slurp(dir / (base + ".timeseries.csv")));
    expectValidChromeTrace(dir / (base + ".host.trace.json"));
}

TEST(ObsDeterminism, TracingDoesNotPerturbTheMeasurement)
{
    const config::SystemConfig cfg = tinyMeshConfig();

    obs::TraceOptions trace;
    trace.level = obs::TraceLevel::Full;
    trace.sampleInterval = 500; // in-memory only: no outDir

    const harness::RunResult off = runAt("GUPS", cfg, 2);
    const harness::RunResult on = runAt("GUPS", cfg, 2, trace);

    EXPECT_TRUE(sameMeasurement(off, on));
    EXPECT_EQ(off.traceRecords, 0u);
    EXPECT_GT(on.traceRecords, 0u);
    EXPECT_GT(on.sampleRows, 0u);
}

} // namespace
} // namespace netcrafter

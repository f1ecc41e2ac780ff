/**
 * @file
 * Live-telemetry tests: heartbeat/profiling/watchdog sampling must not
 * perturb the measurement at any shard count or steal policy, the
 * NDJSON heartbeat stream must be schema-clean, the self-profiling
 * phase columns must fill once armed, and the new export columns must
 * land at the end of the header.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/exp/export.hh"
#include "src/harness/runner.hh"
#include "src/obs/json_validate.hh"
#include "src/obs/progress_board.hh"
#include "src/obs/telemetry.hh"

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

/** Every line of the heartbeat file parses and carries the schema's
 *  required fields; returns the record count. */
std::size_t
validateHeartbeatFile(const std::filesystem::path &path)
{
    std::ifstream is(path);
    EXPECT_TRUE(is.is_open()) << path;
    std::size_t records = 0;
    double last_seq = 0;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        ++records;
        std::string error;
        obs::JsonValue root;
        EXPECT_TRUE(obs::parseJson(line, root, &error))
            << "record " << records << ": " << error;
        EXPECT_TRUE(root.isObject());
        const obs::JsonValue *seq = root.find("seq");
        EXPECT_TRUE(seq != nullptr && seq->isNumber());
        if (seq != nullptr && seq->isNumber()) {
            EXPECT_GT(seq->number, last_seq);
            last_seq = seq->number;
        }
        for (const char *key :
             {"host_seconds", "events", "backlog"}) {
            const obs::JsonValue *v = root.find(key);
            EXPECT_TRUE(v != nullptr && v->isNumber()) << key;
        }
        const obs::JsonValue *runs = root.find("runs");
        EXPECT_TRUE(runs != nullptr && runs->isArray());
        const obs::JsonValue *phases = root.find("phases");
        EXPECT_TRUE(phases != nullptr && phases->isObject());
        if (phases != nullptr && phases->isObject()) {
            for (unsigned p = 0; p < obs::kPhaseCount; ++p) {
                EXPECT_NE(phases->find(obs::phaseName(
                              static_cast<obs::Phase>(p))),
                          nullptr);
            }
        }
    }
    return records;
}

TEST(TelemetrySharded, HeartbeatSamplingDoesNotPerturbTheMeasurement)
{
    const config::SystemConfig cfg = tinyMeshConfig();
    const std::string app = "GUPS";

    // Baselines with the sampler off.
    ASSERT_FALSE(obs::Telemetry::instance().running());
    const harness::RunResult off1 = runAt(app, cfg, 1);
    const harness::RunResult off2 = runAt(app, cfg, 2);
    EXPECT_TRUE(sameMeasurement(off1, off2));
    EXPECT_EQ(off1.phaseExecuteSeconds, 0.0); // profiling unarmed

    const std::filesystem::path heartbeat =
        std::filesystem::path(::testing::TempDir()) /
        "telemetry-test.ndjson";
    std::filesystem::remove(heartbeat);

    obs::TelemetryOptions opts;
    opts.heartbeatPath = heartbeat.string();
    opts.intervalMs = 10;
    obs::Telemetry::instance().start(opts);
    ASSERT_TRUE(obs::Telemetry::instance().running());

    // Same point at 1/2/4 shards with the sampler attached, plus a
    // 4-shard run with work stealing forced on (multiplexed so steals
    // actually migrate units).
    const harness::RunResult on1 = runAt(app, cfg, 1);
    const harness::RunResult on2 = runAt(app, cfg, 2);
    const harness::RunResult on4 = runAt(app, cfg, 4);
    const harness::RunResult on4_steal =
        runAt(app, cfg, 4, obs::TraceOptions{}, sim::ExecPolicy{2, true, 1});

    obs::Telemetry::instance().stop();
    ASSERT_FALSE(obs::Telemetry::instance().running());

    EXPECT_TRUE(sameMeasurement(off1, on1));
    EXPECT_TRUE(sameMeasurement(off1, on2));
    EXPECT_TRUE(sameMeasurement(off1, on4));
    EXPECT_TRUE(sameMeasurement(off1, on4_steal));

    // A running sampler arms host-time self-profiling: the execute
    // phase accumulates real host time (diagnostics, not measurement).
    EXPECT_GT(on1.phaseExecuteSeconds, 0.0);
    EXPECT_GT(on2.phaseExecuteSeconds, 0.0);
    EXPECT_GT(on2.phaseBarrierWaitSeconds, 0.0);

    // stop() emits a final heartbeat even for sub-interval runs, and
    // every record in the stream is schema-clean.
    EXPECT_GE(obs::Telemetry::instance().heartbeats(), 1u);
    EXPECT_GE(validateHeartbeatFile(heartbeat), 1u);
}

TEST(TelemetrySharded, ProfileEnvArmsThePhaseClocks)
{
    // NETCRAFTER_PROFILE / tracing also arm profiling without the
    // sampler; exercised here via the tracing path (in-memory only).
    obs::TraceOptions trace;
    trace.level = obs::TraceLevel::Packets;
    const harness::RunResult traced =
        runAt("GUPS", tinyMeshConfig(), 2, trace);
    EXPECT_GT(traced.phaseExecuteSeconds, 0.0);
    EXPECT_GT(traced.phaseExportSeconds, 0.0);
}

TEST(TelemetryExport, NewColumnsAppendAtTheEndOfTheHeader)
{
    std::ostringstream os;
    exp::writeCsv({}, os);
    const std::string header =
        os.str().substr(0, os.str().find('\n'));
    EXPECT_NE(header.find("warnings_suppressed"), std::string::npos);
    EXPECT_TRUE(header.find(
                    "warnings_suppressed,phase_execute_seconds,"
                    "phase_barrier_wait_seconds,phase_ingress_seconds,"
                    "phase_steal_scan_seconds,phase_export_seconds,"
                    "wire_flits_delivered,wire_bytes_delivered") !=
                std::string::npos)
        << header;
    // Appended at the end: existing prefix-keyed consumers keep
    // working.
    EXPECT_EQ(header.rfind("wire_bytes_delivered"),
              header.size() -
                  std::string("wire_bytes_delivered").size());
    EXPECT_EQ(header.rfind("job,workload,config_digest,scale,cycles"),
              0u);
}

} // namespace
} // namespace netcrafter

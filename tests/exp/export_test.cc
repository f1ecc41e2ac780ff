/** @file Tests for the JSON / CSV exporters. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/exp/export.hh"

namespace netcrafter::exp {
namespace {

ExportRecord
record(const std::string &label, Tick cycles)
{
    ExportRecord r;
    r.label = label;
    r.configDigest = 0xabcd;
    r.scale = 0.5;
    r.result.workload = "GUPS";
    r.result.cycles = cycles;
    r.result.l1Mpki = 1.25;
    return r;
}

TEST(ExportCsv, HeaderPlusOneLinePerRecord)
{
    std::ostringstream os;
    writeCsv({record("a", 10), record("b", 20)}, os);
    const std::string out = os.str();

    std::istringstream lines(out);
    std::string line;
    int n = 0;
    while (std::getline(lines, line))
        ++n;
    EXPECT_EQ(n, 3);

    EXPECT_EQ(out.find("job,workload,config_digest,scale,cycles"), 0u);
    // Digests render zero-padded to 16 hex digits.
    EXPECT_NE(out.find("a,GUPS,000000000000abcd,0.5,10"),
              std::string::npos);
    EXPECT_NE(out.find("b,GUPS,000000000000abcd,0.5,20"),
              std::string::npos);
}

TEST(ExportCsv, QuotesCellsContainingDelimiters)
{
    std::ostringstream os;
    writeCsv({record("with,comma", 1)}, os);
    EXPECT_NE(os.str().find("\"with,comma\""), std::string::npos);
}

TEST(ExportJson, StructureAndValues)
{
    std::ostringstream os;
    writeJson({record("a", 10)}, os);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"results\": ["), std::string::npos);
    EXPECT_NE(out.find("\"job\": \"a\""), std::string::npos);
    EXPECT_NE(out.find("\"workload\": \"GUPS\""), std::string::npos);
    EXPECT_NE(out.find("\"cycles\": 10"), std::string::npos);
    EXPECT_NE(out.find("\"l1_mpki\": 1.25"), std::string::npos);

    // Balanced braces / brackets (cheap well-formedness check).
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(ExportJson, EscapesStrings)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ExportRegistryJson, CoversAllSections)
{
    stats::Registry reg;
    reg.counter("sys.count").inc(7);
    reg.average("sys.lat").sample(2.0);
    reg.average("sys.lat").sample(4.0);
    auto &d = reg.distribution("sys.dist", {10, 20});
    d.sample(5);
    d.sample(15);
    d.sample(99);

    std::ostringstream os;
    writeRegistryJson(reg, os);
    const std::string out = os.str();

    EXPECT_NE(out.find("\"counters\""), std::string::npos);
    EXPECT_NE(out.find("\"sys.count\": 7"), std::string::npos);
    EXPECT_NE(out.find("\"sys.lat\": {\"mean\": 3"), std::string::npos);
    EXPECT_NE(out.find("\"count\": 2"), std::string::npos);
    EXPECT_NE(out.find("\"sys.dist\""), std::string::npos);
    EXPECT_NE(out.find("\"bounds\": [10, 20]"), std::string::npos);
    EXPECT_NE(out.find("\"counts\": [1, 1, 1]"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(ExportRecords, FromSweepAndCacheAgree)
{
    SweepSpec spec("s");
    spec.add("j", "GUPS", config::baselineConfig(), 1.0);

    SweepResult res;
    harness::RunResult r;
    r.workload = "GUPS";
    r.cycles = 5;
    res.results.push_back(r);
    res.index.emplace("j", 0);

    const auto from_sweep = recordsFromSweep(spec, res);
    ASSERT_EQ(from_sweep.size(), 1u);
    EXPECT_EQ(from_sweep[0].label, "j");
    EXPECT_EQ(from_sweep[0].configDigest,
              config::baselineConfig().digest());

    harness::RunSpec run_spec;
    run_spec.workload = "GUPS";
    run_spec.config = config::baselineConfig();
    ResultCache cache;
    cache.getOrRun(keyOf(run_spec), [&] { return r; });
    const auto from_cache = recordsFromCache(cache);
    ASSERT_EQ(from_cache.size(), 1u);
    EXPECT_EQ(from_cache[0].label, "");
    EXPECT_EQ(from_cache[0].configDigest, from_sweep[0].configDigest);
    EXPECT_EQ(from_cache[0].result.cycles, 5u);
}

} // namespace
} // namespace netcrafter::exp

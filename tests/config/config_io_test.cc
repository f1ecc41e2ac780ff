/** @file Tests for config serialization round-tripping. */

#include <gtest/gtest.h>

#include <sstream>

#include "src/config/config_io.hh"

namespace netcrafter::config {
namespace {

TEST(ConfigIo, RoundTripPreservesEveryField)
{
    SystemConfig original = netcrafterConfig();
    original.numClusters = 3;
    original.gpusPerCluster = 4;
    original.interClusterGBps = 42.5;
    original.flitBytes = 8;
    original.netcrafter.poolingWindow = 96;
    original.netcrafter.trimGranularity = 8;
    original.netcrafter.sequencing = SequencingMode::PrioritizeData;
    original.l1FillMode = L1FillMode::SectorAlways;
    original.seed = 12345;

    SystemConfig parsed =
        parseConfigString(configToString(original));
    EXPECT_EQ(configToString(parsed), configToString(original));
    EXPECT_EQ(parsed.numClusters, 3u);
    EXPECT_EQ(parsed.gpusPerCluster, 4u);
    EXPECT_DOUBLE_EQ(parsed.interClusterGBps, 42.5);
    EXPECT_EQ(parsed.flitBytes, 8u);
    EXPECT_EQ(parsed.netcrafter.poolingWindow, 96u);
    EXPECT_EQ(parsed.netcrafter.sequencing,
              SequencingMode::PrioritizeData);
    EXPECT_EQ(parsed.l1FillMode, L1FillMode::SectorAlways);
    EXPECT_EQ(parsed.seed, 12345u);
}

TEST(ConfigIo, PartialOverridesBase)
{
    SystemConfig base = baselineConfig();
    SystemConfig parsed = parseConfigString(
        "network.inter_gbps = 64\nnetcrafter.stitching = true\n", base);
    EXPECT_DOUBLE_EQ(parsed.interClusterGBps, 64.0);
    EXPECT_TRUE(parsed.netcrafter.stitching);
    // Untouched fields keep base values.
    EXPECT_DOUBLE_EQ(parsed.intraClusterGBps, 128.0);
}

TEST(ConfigIo, CommentsAndBlanksIgnored)
{
    SystemConfig parsed = parseConfigString(
        "# a comment\n\n  seed = 7  # trailing comment\n");
    EXPECT_EQ(parsed.seed, 7u);
}

TEST(ConfigIo, UnknownKeyIsFatal)
{
    EXPECT_DEATH(parseConfigString("no.such.key = 1\n"), "unknown key");
}

TEST(ConfigIo, MalformedLineIsFatal)
{
    EXPECT_DEATH(parseConfigString("just words\n"), "expected key");
}

TEST(ConfigIo, BadEnumIsFatal)
{
    EXPECT_DEATH(parseConfigString("netcrafter.sequencing = maybe\n"),
                 "bad sequencing");
    EXPECT_DEATH(parseConfigString("l1.fill_mode = nope\n"),
                 "bad L1 fill mode");
}

TEST(ConfigIo, NumbersParseTheWholeValue)
{
    SystemConfig parsed = parseConfigString(
        "topology.clusters = 4294967295\n"
        "seed = 18446744073709551615\n"
        "network.inter_gbps = 1.5e1\n");
    EXPECT_EQ(parsed.numClusters, 4294967295u);
    EXPECT_EQ(parsed.seed, 18446744073709551615u);
    EXPECT_DOUBLE_EQ(parsed.interClusterGBps, 15.0);
}

TEST(ConfigIo, LooseNumbersAreFatal)
{
    // Each value must fail naming its key and itself, rather than be
    // truncated to the field's width, negated, cut at the first
    // non-digit, taken as NaN, or escape as an exception.
    const struct
    {
        const char *line;
        const char *message;
    } rows[] = {
        {"topology.clusters = 4294967298",
         "topology\\.clusters.*'4294967298'"},
        {"l1.assoc = -4", "l1\\.assoc.*'-4'"},
        {"l1.assoc = +4", "l1\\.assoc.*'\\+4'"},
        {"seed = 12abc", "seed.*'12abc'"},
        {"seed = abc", "seed.*'abc'"},
        {"seed = 18446744073709551616", "seed.*'18446744073709551616'"},
        {"network.inter_gbps = 16GB", "network\\.inter_gbps.*'16GB'"},
        {"network.inter_gbps = nan", "network\\.inter_gbps.*'nan'"},
        {"network.inter_gbps = inf", "network\\.inter_gbps.*'inf'"},
        {"network.inter_gbps =", "network\\.inter_gbps.*''"},
    };
    for (const auto &row : rows) {
        EXPECT_EXIT(parseConfigString(row.line),
                    testing::ExitedWithCode(1), row.message)
            << row.line;
    }
}

TEST(ConfigIo, ModeNames)
{
    EXPECT_STREQ(sequencingModeName(SequencingMode::Off), "off");
    EXPECT_STREQ(sequencingModeName(SequencingMode::PrioritizePtw),
                 "ptw");
    EXPECT_STREQ(sequencingModeName(SequencingMode::PrioritizeData),
                 "data");
    EXPECT_STREQ(l1FillModeName(L1FillMode::FullLine), "full-line");
    EXPECT_STREQ(l1FillModeName(L1FillMode::TrimInterCluster),
                 "trim-inter-cluster");
    EXPECT_STREQ(l1FillModeName(L1FillMode::SectorAlways),
                 "sector-always");
}

TEST(ConfigIo, WriteProducesSortedStableOutput)
{
    const std::string a = configToString(baselineConfig());
    const std::string b = configToString(baselineConfig());
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find("network.inter_gbps = 16"), std::string::npos);
    EXPECT_NE(a.find("compute.cus_per_gpu = 64"), std::string::npos);
}

} // namespace
} // namespace netcrafter::config

/**
 * @file
 * Shard-partition unit tests: every simulation component of a sharded
 * MultiGpuSystem must bind to the engine of its cluster's shard, each
 * component to exactly one shard.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/gpu/system.hh"

namespace netcrafter::gpu {
namespace {

config::SystemConfig
tinyConfig(std::uint32_t clusters)
{
    config::SystemConfig cfg = config::baselineConfig();
    cfg.numClusters = clusters;
    cfg.gpusPerCluster = 2;
    cfg.cusPerGpu = 2;
    cfg.maxWavesPerCu = 2;
    return cfg;
}

TEST(ShardedPartitionTest, ShardOfClusterRoundRobins)
{
    EXPECT_EQ(sim::shardOfCluster(0, 2), 0u);
    EXPECT_EQ(sim::shardOfCluster(1, 2), 1u);
    EXPECT_EQ(sim::shardOfCluster(2, 2), 0u);
    EXPECT_EQ(sim::shardOfCluster(3, 2), 1u);
    EXPECT_EQ(sim::shardOfCluster(3, 1), 0u);
}

TEST(ShardedPartitionTest, ShardCountZeroMeansSerial)
{
    MultiGpuSystem serial(tinyConfig(2), 0);
    EXPECT_EQ(serial.numShards(), 1u);
}

TEST(ShardedPartitionDeathTest, RejectsMoreShardsThanClusters)
{
    // Silent clamping used to hide topology/shard mismatches in sweep
    // scripts: asking for 16 shards on a 2-cluster system quietly ran
    // on 2. A mismatch is now a loud configuration error.
    EXPECT_DEATH({ MultiGpuSystem oversub(tinyConfig(2), 16); },
                 "exceeds the topology's 2 clusters");
}

TEST(ShardedPartitionTest, ComponentsBindToTheirClustersShard)
{
    const config::SystemConfig cfg = tinyConfig(2);
    MultiGpuSystem sys(cfg, 2);
    ASSERT_EQ(sys.numShards(), 2u);
    sim::ShardedEngine &eng = sys.engines();

    noc::Network &net = const_cast<noc::Network &>(sys.network());
    for (GpuId g = 0; g < cfg.numGpus(); ++g) {
        const unsigned shard = sim::shardOfCluster(cfg.clusterOf(g), 2);
        EXPECT_EQ(&net.rdma(g).engine(), &eng.shard(shard))
            << "gpu " << g;
    }
    for (ClusterId c = 0; c < cfg.numClusters; ++c) {
        const unsigned shard = sim::shardOfCluster(c, 2);
        EXPECT_EQ(&net.clusterSwitch(c).engine(), &eng.shard(shard))
            << "cluster " << c;
    }

    // Inter-cluster channels span shards; their egress side (and the
    // SimObject binding) lives on the source cluster's shard.
    const noc::WireChannel &ch01 = net.interClusterChannel(0, 1);
    EXPECT_TRUE(ch01.crossShard());
    EXPECT_EQ(ch01.srcShard(), 0u);
    EXPECT_EQ(ch01.dstShard(), 1u);
    EXPECT_EQ(&ch01.engine(), &eng.shard(0));
    const noc::WireChannel &ch10 = net.interClusterChannel(1, 0);
    EXPECT_TRUE(ch10.crossShard());
    EXPECT_EQ(ch10.srcShard(), 1u);
    EXPECT_EQ(ch10.dstShard(), 0u);
}

TEST(ShardedPartitionTest, EverySimObjectOnExactlyOneShard)
{
    const config::SystemConfig cfg = tinyConfig(3);
    MultiGpuSystem sharded(cfg, 3);
    ASSERT_EQ(sharded.numShards(), 3u);

    // The serial build attaches every component to the one engine; the
    // sharded build must attach the same set, partitioned disjointly.
    MultiGpuSystem serial(cfg, 1);
    std::multiset<std::string> expected(
        serial.engine().attachedObjectNames().begin(),
        serial.engine().attachedObjectNames().end());

    std::multiset<std::string> seen;
    for (unsigned s = 0; s < sharded.numShards(); ++s) {
        for (const std::string &name :
             sharded.engines().shard(s).attachedObjectNames()) {
            EXPECT_EQ(seen.count(name), 0u)
                << name << " attached to more than one shard";
            seen.insert(name);
        }
    }
    EXPECT_EQ(seen, expected);

    // And each GPU-prefixed component sits on its cluster's shard.
    for (GpuId g = 0; g < cfg.numGpus(); ++g) {
        const unsigned shard =
            sim::shardOfCluster(cfg.clusterOf(g), sharded.numShards());
        const std::string prefix = "gpu" + std::to_string(g) + ".";
        for (unsigned s = 0; s < sharded.numShards(); ++s) {
            for (const std::string &name :
                 sharded.engines().shard(s).attachedObjectNames()) {
                if (name.rfind(prefix, 0) == 0) {
                    EXPECT_EQ(s, shard) << name;
                }
            }
        }
    }
}

} // namespace
} // namespace netcrafter::gpu

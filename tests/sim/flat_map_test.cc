/**
 * @file
 * Property tests for the flat miss tables: FlatMap against
 * std::unordered_map under random insert/erase/lookup (including
 * erase-heavy phases that exercise backward-shift deletion inside long
 * probe runs), WaiterTable against per-key reference queues for
 * arrival order, and RingQueue against std::deque.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <unordered_map>

#include "src/sim/flat_map.hh"
#include "src/sim/random.hh"
#include "src/sim/ring_queue.hh"
#include "src/sim/waiter_table.hh"

namespace netcrafter::sim {
namespace {

TEST(FlatMapProperty, MatchesUnorderedMap)
{
    for (const std::uint32_t key_space : {16u, 300u, 5000u}) {
        Pcg32 rng(key_space);
        FlatMap<std::uint64_t, std::uint64_t> flat;
        std::unordered_map<std::uint64_t, std::uint64_t> ref;
        for (int op = 0; op < 60000; ++op) {
            // Line-aligned keys, like the MSHR addresses; phases of
            // insert-heavy and erase-heavy traffic.
            const std::uint64_t key =
                static_cast<std::uint64_t>(rng.below(key_space)) * 64;
            const bool erase_phase = (op / 5000) % 2 == 1;
            const std::uint32_t dice = rng.below(10);
            if (dice < (erase_phase ? 2u : 6u)) {
                auto [value, inserted] = flat.tryEmplace(key);
                auto [it, ref_inserted] = ref.try_emplace(key, 0);
                ASSERT_EQ(inserted, ref_inserted);
                *value += op;
                it->second += op;
            } else if (dice < 8) {
                ASSERT_EQ(flat.erase(key), ref.erase(key) == 1);
            }
            const std::uint64_t probe =
                static_cast<std::uint64_t>(rng.below(key_space)) * 64;
            const std::uint64_t *got = flat.find(probe);
            const auto it = ref.find(probe);
            ASSERT_EQ(got != nullptr, it != ref.end()) << probe;
            if (got != nullptr) {
                ASSERT_EQ(*got, it->second);
            }
            ASSERT_EQ(flat.size(), ref.size());
        }
        // Every surviving key is still reachable after the churn.
        for (const auto &[key, value] : ref) {
            const std::uint64_t *got = flat.find(key);
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(*got, value);
        }
    }
}

TEST(FlatMapProperty, CollidingKeysSurviveEraseInTheMiddleOfARun)
{
    // Five line addresses that share a home slot of the 8-slot table
    // (the table's Fibonacci hash, top 3 bits) form one probe run;
    // erasing any of them must keep the rest reachable.
    std::vector<std::uint64_t> keys;
    for (std::uint64_t line = 0; keys.size() < 5; line += 64) {
        if (((line * 0x9E3779B97F4A7C15ull) >> 61) == 3)
            keys.push_back(line);
    }
    for (std::size_t victim = 0; victim < keys.size(); ++victim) {
        FlatMap<std::uint64_t, int> flat; // grows to 8 slots, holds 6
        for (std::size_t i = 0; i < keys.size(); ++i)
            flat[keys[i]] = static_cast<int>(i);
        ASSERT_TRUE(flat.erase(keys[victim]));
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const int *got = flat.find(keys[i]);
            if (i == victim) {
                EXPECT_EQ(got, nullptr);
            } else {
                ASSERT_NE(got, nullptr);
                EXPECT_EQ(*got, static_cast<int>(i));
            }
        }
    }
}

TEST(WaiterTableProperty, WaitersResumeInArrivalOrderPerKey)
{
    Pcg32 rng(99);
    WaiterTable<std::uint64_t, std::uint64_t> table;
    std::map<std::uint64_t, std::deque<std::uint64_t>> ref;
    std::uint64_t stamp = 0;
    for (int op = 0; op < 40000; ++op) {
        const std::uint64_t key = rng.below(64);
        if (rng.below(3) != 0) {
            const bool first = table.add(key, stamp);
            ASSERT_EQ(first, ref[key].empty());
            ref[key].push_back(stamp++);
        } else if (!ref[key].empty()) {
            auto chain = table.take(key);
            ASSERT_FALSE(table.contains(key));
            std::uint64_t got = 0;
            // Re-adding while draining must not disturb the chain.
            bool readd = rng.below(2) == 0;
            for (std::uint64_t expect : ref[key]) {
                ASSERT_TRUE(table.pop(chain, got));
                ASSERT_EQ(got, expect);
                if (readd) {
                    table.add(key + 1000, got);
                    auto again = table.take(key + 1000);
                    ASSERT_TRUE(table.pop(again, got));
                    ASSERT_FALSE(table.pop(again, got));
                    readd = false;
                }
            }
            ASSERT_FALSE(table.pop(chain, got));
            ref[key].clear();
        }
        std::size_t keys = 0;
        for (const auto &[k, q] : ref)
            keys += q.empty() ? 0 : 1;
        ASSERT_EQ(table.size(), keys);
    }
}

TEST(RingQueueProperty, MatchesDequeIncludingMiddleErase)
{
    Pcg32 rng(7);
    RingQueue<int> ring;
    std::deque<int> ref;
    for (int op = 0; op < 50000; ++op) {
        const std::uint32_t dice = rng.below(10);
        if (dice < 5) {
            ring.push_back(op);
            ref.push_back(op);
        } else if (dice < 8 && !ref.empty()) {
            ASSERT_EQ(ring.front(), ref.front());
            ring.pop_front();
            ref.pop_front();
        } else if (!ref.empty()) {
            const std::size_t i = rng.below(
                static_cast<std::uint32_t>(ref.size()));
            ring.erase(i);
            ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        }
        ASSERT_EQ(ring.size(), ref.size());
        for (std::size_t i = 0; i < ref.size(); i += 7)
            ASSERT_EQ(ring[i], ref[i]);
    }
}

} // namespace
} // namespace netcrafter::sim

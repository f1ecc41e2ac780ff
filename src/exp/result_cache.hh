/**
 * @file
 * Cross-sweep result cache. Design points are identified by
 * (workload, config digest, scale); points shared between figures (the
 * baseline configuration appears in almost every one) are simulated
 * once per process and every later request is served from memory. The
 * cache is thread-safe and deduplicates in-flight work: when two
 * workers ask for the same key concurrently, one simulates and the
 * other blocks until the result is ready.
 */

#ifndef NETCRAFTER_EXP_RESULT_CACHE_HH
#define NETCRAFTER_EXP_RESULT_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/flow/fidelity.hh"
#include "src/harness/runner.hh"

namespace netcrafter::exp {

/** Identity of a unique simulation point. */
struct CacheKey
{
    std::string workload;
    std::uint64_t configDigest = 0;
    double scale = 1.0;

    /**
     * Digest of the serving scenario; 0 for closed-loop jobs, so
     * pre-serving cache keys are unchanged. Like configDigest it
     * captures what is simulated (arrival process, load, mix, phases,
     * seed) and still excludes how (the shard count).
     */
    std::uint64_t serveDigest = 0;

    /**
     * Simulation fidelity the point ran at. Unlike the shard count this
     * IS part of the identity: flow/hybrid results approximate the
     * cycle measurement, so a cycle-accurate request must never be
     * served a flow-fidelity result (or vice versa).
     */
    flow::Fidelity fidelity = flow::Fidelity::Cycle;

    bool
    operator<(const CacheKey &o) const
    {
        return std::tie(workload, configDigest, scale, serveDigest,
                        fidelity) <
               std::tie(o.workload, o.configDigest, o.scale,
                        o.serveDigest, o.fidelity);
    }

    bool
    operator==(const CacheKey &o) const
    {
        return workload == o.workload && configDigest == o.configDigest &&
               scale == o.scale && serveDigest == o.serveDigest &&
               fidelity == o.fidelity;
    }
};

/** The key identifying the simulation point @p spec runs. */
CacheKey keyOf(const harness::RunSpec &spec);

class ResultCache
{
  public:
    using RunFn = std::function<harness::RunResult()>;

    /**
     * Return the cached result for @p key, or execute @p run to produce
     * it. Exactly one caller executes @p run per key; concurrent
     * requesters for the same key block until it finishes.
     * @p was_hit (optional) reports whether this call avoided a
     * simulation.
     */
    harness::RunResult getOrRun(const CacheKey &key, const RunFn &run,
                                bool *was_hit = nullptr);

    /** Requests served without executing a simulation. */
    std::uint64_t hits() const;

    /** Simulations actually executed (== unique keys ever requested). */
    std::uint64_t misses() const;

    /** Completed entries resident in the cache. */
    std::size_t size() const;

    /** Copy of every completed (key, result) pair, key-ordered. */
    std::vector<std::pair<CacheKey, harness::RunResult>> snapshot() const;

  private:
    struct Entry
    {
        bool ready = false;
        harness::RunResult result;
    };

    mutable std::mutex mu_;
    std::condition_variable ready_cv_;
    std::map<CacheKey, Entry> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_RESULT_CACHE_HH

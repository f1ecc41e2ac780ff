#include "src/exp/result_cache.hh"

namespace netcrafter::exp {

CacheKey
keyOf(const Job &job)
{
    return keyOf(job, flow::Fidelity::Cycle);
}

CacheKey
keyOf(const Job &job, flow::Fidelity fidelity)
{
    return CacheKey{job.workload, job.config.digest(), job.scale,
                    job.serve.digest(), fidelity};
}

harness::RunResult
ResultCache::getOrRun(const CacheKey &key, const RunFn &run, bool *was_hit)
{
    std::unique_lock<std::mutex> lock(mu_);
    auto [it, inserted] = entries_.try_emplace(key);
    if (!inserted) {
        ++hits_;
        if (was_hit != nullptr)
            *was_hit = true;
        ready_cv_.wait(lock, [&] { return it->second.ready; });
        return it->second.result;
    }

    // First requester for this key: simulate outside the lock so other
    // keys make progress, then publish.
    ++misses_;
    if (was_hit != nullptr)
        *was_hit = false;
    lock.unlock();
    harness::RunResult result = run();
    lock.lock();
    it->second.result = result;
    it->second.ready = true;
    ready_cv_.notify_all();
    return result;
}

std::uint64_t
ResultCache::hits() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
}

std::uint64_t
ResultCache::misses() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
}

std::size_t
ResultCache::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto &[key, entry] : entries_)
        n += entry.ready ? 1 : 0;
    return n;
}

std::vector<std::pair<CacheKey, harness::RunResult>>
ResultCache::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<CacheKey, harness::RunResult>> out;
    out.reserve(entries_.size());
    for (const auto &[key, entry] : entries_) {
        if (entry.ready)
            out.emplace_back(key, entry.result);
    }
    return out;
}

} // namespace netcrafter::exp

#include "src/exp/scheduler.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "src/obs/telemetry.hh"
#include "src/sim/logging.hh"

namespace netcrafter::exp {

unsigned
hostCpus()
{
#if defined(__linux__)
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
        const int count = CPU_COUNT(&mask);
        if (count > 0)
            return static_cast<unsigned>(count);
    }
#endif
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

const harness::RunResult &
SweepResult::at(const std::string &job_name) const
{
    auto it = index.find(job_name);
    if (it == index.end())
        NC_FATAL("sweep result has no job named '", job_name, "'");
    return results.at(it->second);
}

Scheduler::Scheduler(Options opts, ResultCache *cache)
    : opts_(opts), cache_(cache),
      epoch_(std::chrono::steady_clock::now())
{
    shards_ = opts.run.shards != 0 ? opts.run.shards : 1;
    if (opts.workers != 0) {
        workers_ = opts.workers;
    } else {
        // Auto-cap so run-level workers x intra-run shards never
        // oversubscribes the host: each job may occupy up to shards_
        // threads while it executes.
        workers_ = std::max(1u, hostCpus() / shards_);
    }
}

harness::RunResult
Scheduler::runJob(const Job &job, JobTiming &timing)
{
    const auto t0 = std::chrono::steady_clock::now();
    timing.startSeconds =
        std::chrono::duration<double>(t0 - epoch_).count();
    harness::RunSpec spec = opts_.run;
    spec.workload = job.workload;
    spec.serve = job.serve;
    spec.config = job.config;
    spec.scale = job.scale * opts_.run.scale;
    spec.shards = shards_;
    harness::RunResult result;
    if (cache_ != nullptr) {
        // The cache key deliberately excludes shards_ and the execution
        // policy: they are execution strategies, not design points, and
        // results are bit-identical across them. Fidelity, by contrast,
        // is part of the key — approximate results must never answer an
        // exact request.
        result = cache_->getOrRun(
            keyOf(spec), [&] { return harness::run(spec); },
            &timing.cacheHit);
    } else {
        result = harness::run(spec);
    }
    timing.name = job.name;
    timing.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    return result;
}

SweepResult
Scheduler::run(const SweepSpec &spec)
{
    const auto t0 = std::chrono::steady_clock::now();

    SweepResult out;
    out.results.resize(spec.size());
    out.timings.resize(spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i)
        out.index.emplace(spec.jobs()[i].name, i);

    const std::uint64_t hits0 = cache_ != nullptr ? cache_->hits() : 0;
    const std::uint64_t misses0 =
        cache_ != nullptr ? cache_->misses() : 0;

    std::ostream &log = opts_.log != nullptr ? *opts_.log : std::cerr;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex log_mu;

    // Publish sweep-level progress for the heartbeat/ETA display. Live
    // mode starts the sampler itself (TTY on) if nothing else has;
    // otherwise the counters only feed an already-running sampler.
    if (opts_.progress == ProgressMode::Live &&
        !obs::Telemetry::instance().running()) {
        obs::TelemetryOptions topts;
        topts.tty = true;
        obs::Telemetry::instance().start(topts);
    }
    obs::SweepProgress sweep_progress;
    sweep_progress.jobsTotal.store(spec.size(),
                                   std::memory_order_relaxed);
    obs::Telemetry::instance().registerSweep(&sweep_progress);

    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= spec.size())
                return;
            const Job &job = spec.jobs()[i];
            out.results[i] = runJob(job, out.timings[i]);
            sweep_progress.jobsDone.fetch_add(
                1, std::memory_order_relaxed);
            if (out.timings[i].cacheHit) {
                sweep_progress.cacheHits.fetch_add(
                    1, std::memory_order_relaxed);
            }
            const std::size_t finished = done.fetch_add(1) + 1;
            if (opts_.progress == ProgressMode::PerJob) {
                std::ostringstream line;
                line << "[" << finished << "/" << spec.size() << "] "
                     << spec.name() << " " << job.name << " "
                     << out.timings[i].seconds << "s"
                     << (out.timings[i].cacheHit ? " (cached)" : "")
                     << "\n";
                std::lock_guard<std::mutex> lock(log_mu);
                log << line.str() << std::flush;
            }
        }
    };

    const unsigned n_threads = static_cast<unsigned>(
        std::min<std::size_t>(workers_, spec.size()));
    if (n_threads <= 1) {
        worker();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(n_threads);
        for (unsigned t = 0; t < n_threads; ++t)
            pool.emplace_back(worker);
        for (auto &th : pool)
            th.join();
    }
    obs::Telemetry::instance().unregisterSweep(&sweep_progress);

    if (cache_ != nullptr) {
        out.cacheHits = cache_->hits() - hits0;
        out.cacheMisses = cache_->misses() - misses0;
    } else {
        out.cacheMisses = spec.size();
    }
    history_.reserve(history_.size() + spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        Job qualified = spec.jobs()[i];
        qualified.name = spec.name() + "/" + qualified.name;
        history_.emplace_back(std::move(qualified), out.results[i]);
    }
    timingHistory_.reserve(timingHistory_.size() + spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
        JobTiming qualified = out.timings[i];
        qualified.name = spec.name() + "/" + qualified.name;
        timingHistory_.push_back(std::move(qualified));
    }
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    return out;
}

} // namespace netcrafter::exp

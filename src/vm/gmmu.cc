#include "src/vm/gmmu.hh"

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::vm {

std::size_t
PageWalkCache::slotOf(Addr key) const
{
    std::size_t i = 0;
    while (i < keys_.size() && keys_[i] != key)
        ++i;
    return i;
}

int
PageWalkCache::deepestMatch(Addr vaddr)
{
    ++lookups_;
    for (int level = kPageTableLevels - 1; level >= 1; --level) {
        const std::size_t i = slotOf(key(level, vaddr));
        if (i < keys_.size()) {
            ++hits_;
            // Refresh recency: a matching entry is hot.
            lastUse_[i] = ++useClock_;
            return level;
        }
    }
    return 0;
}

void
PageWalkCache::insert(int level, Addr vaddr)
{
    const Addr k = key(level, vaddr);
    std::size_t i = slotOf(k);
    if (i == keys_.size()) {
        if (keys_.size() < entries_) {
            keys_.push_back(k);
            lastUse_.push_back(0);
        } else {
            // Full: replace the least recently used entry.
            i = 0;
            for (std::size_t j = 1; j < keys_.size(); ++j) {
                if (lastUse_[j] < lastUse_[i])
                    i = j;
            }
            keys_[i] = k;
        }
    }
    lastUse_[i] = ++useClock_;
}

Gmmu::Gmmu(sim::Engine &engine, std::string name,
           const GmmuParams &params, const PageTable &page_table,
           PteFetchFn fetch)
    : SimObject(engine, std::move(name)), params_(params),
      pageTable_(page_table), fetch_(std::move(fetch)),
      pwc_(params.pwcEntries)
{
    NC_ASSERT(fetch_ != nullptr, "GMMU needs a PTE fetch path");
    traceLane_ = obs::internLane(engine, this->name());
}

void
Gmmu::walk(Addr vpn, Callback done)
{
    if (!waiters_.add(vpn, std::move(done)))
        return; // joins the walk already queued or running
    queued_.push_back(vpn);
    ++walksStarted_;
    obs::tracepoint(engine(), obs::TraceLevel::Links,
                    obs::TraceKind::PktStage, obs::TraceStage::WalkStart,
                    traceLane_, vpn);
    beginNextWalk();
}

void
Gmmu::beginNextWalk()
{
    if (activeWalkers_ >= params_.walkers || queued_.empty())
        return;
    const Addr vpn = queued_.front();
    queued_.pop_front();
    ++activeWalkers_;
    // PWC lookup determines where the walk starts.
    schedule(params_.pwcLatency, [this, vpn] {
        const Addr vaddr = vpn * kPageBytes;
        const int deepest = pwc_.deepestMatch(vaddr);
        runWalk(vpn, deepest + 1);
    });
}

void
Gmmu::runWalk(Addr vpn, int level)
{
    const Addr vaddr = vpn * kPageBytes;
    if (level > kPageTableLevels) {
        finishWalk(vpn);
        return;
    }
    ++pteFetches_;
    const WalkStep step = pageTable_.step(level, vaddr);
    fetch_(step, [this, vpn, level] {
        const Addr vaddr = vpn * kPageBytes;
        if (level < kPageTableLevels)
            pwc_.insert(level, vaddr);
        runWalk(vpn, level + 1);
    });
}

void
Gmmu::finishWalk(Addr vpn)
{
    ++walksCompleted_;
    obs::tracepoint(engine(), obs::TraceLevel::Links,
                    obs::TraceKind::PktStage, obs::TraceStage::WalkEnd,
                    traceLane_, vpn);
    Translation t;
    t.owner = pageTable_.dataOwner(vpn * kPageBytes);
    auto waiters = waiters_.take(vpn);
    NC_ASSERT(activeWalkers_ > 0, "walker underflow");
    --activeWalkers_;
    Callback done;
    while (waiters_.pop(waiters, done))
        done(t);
    beginNextWalk();
}

} // namespace netcrafter::vm

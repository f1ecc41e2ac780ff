#include "src/vm/tlb.hh"

#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"

namespace netcrafter::vm {

Tlb::Tlb(sim::Engine &engine, std::string name, const TlbParams &params,
         MissHandler miss_handler)
    : SimObject(engine, std::move(name)), params_(params),
      missHandler_(std::move(miss_handler)),
      numSets_(params.entries / params.assoc)
{
    NC_ASSERT(params_.assoc > 0 && params_.entries % params_.assoc == 0,
              "TLB entries must divide evenly into ways");
    NC_ASSERT(numSets_ > 0, "TLB must have at least one set");
    NC_ASSERT(missHandler_ != nullptr, "TLB needs a miss handler");
    ways_.resize(params_.entries);
    traceLane_ = obs::internLane(engine, this->name());
}

std::uint32_t
Tlb::setOf(Addr vpn) const
{
    return static_cast<std::uint32_t>(vpn % numSets_);
}

Tlb::Way *
Tlb::findWay(Addr vpn)
{
    const std::size_t base =
        static_cast<std::size_t>(setOf(vpn)) * params_.assoc;
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (way.valid && way.vpn == vpn)
            return &way;
    }
    return nullptr;
}

const Tlb::Way *
Tlb::findWay(Addr vpn) const
{
    return const_cast<Tlb *>(this)->findWay(vpn);
}

bool
Tlb::contains(Addr vpn) const
{
    return findWay(vpn) != nullptr;
}

void
Tlb::access(Addr vpn, Callback done)
{
    ++accesses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::TlbLookup,
                    traceLane_, vpn);
    if (Way *way = findWay(vpn)) {
        ++hits_;
        way->lastUse = ++useClock_;
        Translation t = way->t;
        schedule(params_.lookupLatency,
                 [done = std::move(done), t]() mutable { done(t); });
        return;
    }

    ++misses_;
    obs::tracepoint(engine(), obs::TraceLevel::Full,
                    obs::TraceKind::PktStage, obs::TraceStage::TlbMiss,
                    traceLane_, vpn);
    if (!pendingByVpn_.add(vpn, std::move(done)))
        return; // merged onto the outstanding miss

    if (activeBelow_ < params_.mshrEntries) {
        ++activeBelow_;
        schedule(params_.lookupLatency, [this, vpn] { startMiss(vpn); });
    } else {
        // All MSHR slots busy: the primary miss waits its turn.
        ++mshrQueued_;
        queuedMisses_.push_back(vpn);
    }
}

void
Tlb::startMiss(Addr vpn)
{
    missHandler_(vpn,
                 [this, vpn](Translation t) { finishMiss(vpn, t); });
}

void
Tlb::finishMiss(Addr vpn, Translation t)
{
    insert(vpn, t);
    auto waiters = pendingByVpn_.take(vpn);

    NC_ASSERT(activeBelow_ > 0, "TLB MSHR underflow");
    --activeBelow_;
    if (!queuedMisses_.empty()) {
        const Addr next = queuedMisses_.front();
        queuedMisses_.pop_front();
        ++activeBelow_;
        schedule(1, [this, next] { startMiss(next); });
    }

    Callback done;
    while (pendingByVpn_.pop(waiters, done))
        done(t);
}

void
Tlb::insert(Addr vpn, Translation t)
{
    ++useClock_;
    if (Way *way = findWay(vpn)) {
        way->t = t;
        way->lastUse = useClock_;
        return;
    }
    const std::size_t base =
        static_cast<std::size_t>(setOf(vpn)) * params_.assoc;
    Way *victim = &ways_[base];
    for (std::uint32_t w = 0; w < params_.assoc; ++w) {
        Way &way = ways_[base + w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }
    victim->vpn = vpn;
    victim->t = t;
    victim->valid = true;
    victim->lastUse = useClock_;
}

} // namespace netcrafter::vm

#include "src/noc/link.hh"

namespace netcrafter::noc {

Link::Link(sim::Engine &engine, std::string name, FlitBuffer &source,
           FlitBuffer &sink, std::uint32_t flits_per_cycle, Tick latency)
    : SimObject(engine, std::move(name)), source_(source), sink_(sink),
      flitsPerCycle_(flits_per_cycle), latency_(latency),
      wake_(engine, this)
{
    NC_ASSERT(flitsPerCycle_ > 0, "link needs positive bandwidth");
    source_.setOnPush([this] { notify(); });
    // The sink's pop hook belongs to this link: freeing space may unstall
    // a transfer. The sink's push hook belongs to the sink's consumer.
    sink_.setOnPop([this] { notify(); });
    (void)latency_;
}

void
Link::notify()
{
    wake_.notify();
}

void
Link::transfer()
{
    wake_.clearPending();
    std::uint32_t moved = 0;
    while (moved < flitsPerCycle_ && !source_.empty() && !sink_.full()) {
        FlitPtr flit = source_.pop();
        bytesTransferred_ += flit->capacity;
        usefulBytesTransferred_ += flit->usedBytes();
        ++flitsTransferred_;
        ++moved;
        sink_.tryPush(std::move(flit));
    }
    if (moved > 0) {
        ++busyCycles_;
        if (!everBusy_) {
            everBusy_ = true;
            firstBusyTick_ = now();
        }
        lastBusyTick_ = now();
    }
    // Keep draining while work remains and the sink has room; a full sink
    // wakes us again via its pop hook.
    if (!source_.empty() && !sink_.full())
        notify();
}

double
Link::utilization() const
{
    Tick elapsed = now();
    if (elapsed == 0)
        return 0.0;
    return static_cast<double>(flitsTransferred_) /
           (static_cast<double>(elapsed) * flitsPerCycle_);
}

} // namespace netcrafter::noc

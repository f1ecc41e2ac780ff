/**
 * @file
 * Simple HBM/GDDR model: fixed access latency plus a bandwidth token
 * bucket (Table 2: 1 TB/s, 100 ns).
 */

#ifndef NETCRAFTER_MEM_DRAM_HH
#define NETCRAFTER_MEM_DRAM_HH

#include <algorithm>
#include <cstdint>

#include "src/obs/trace_buffer.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::mem {

/** Per-GPU DRAM stack. */
class Dram : public sim::SimObject
{
  public:
    using Callback = sim::SmallFn;

    Dram(sim::Engine &engine, std::string name, Tick latency,
         std::uint32_t bytes_per_cycle)
        : SimObject(engine, std::move(name)), latency_(latency),
          bytesPerCycle_(bytes_per_cycle)
    {
        traceLane_ = obs::internLane(engine, this->name());
    }

    /**
     * Perform an access of @p bytes. @p done (may be null for writes
     * nobody waits on) fires when the data is available / committed.
     */
    void
    access(std::uint32_t bytes, Callback done)
    {
        const Tick start = std::max(now(), nextFree_);
        const Tick occupancy =
            std::max<Tick>(1, divCeil(bytes, bytesPerCycle_));
        nextFree_ = start + occupancy;
        ++accesses_;
        bytesAccessed_ += bytes;
        obs::tracepoint(engine(), obs::TraceLevel::Full,
                        obs::TraceKind::PktStage,
                        obs::TraceStage::DramAccess, traceLane_, bytes,
                        bytes);
        if (done) {
            engine().scheduleAbs(start + occupancy + latency_,
                                 std::move(done));
        }
    }

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t bytesAccessed() const { return bytesAccessed_; }

  private:
    Tick latency_;
    std::uint32_t bytesPerCycle_;
    Tick nextFree_ = 0;
    std::uint64_t accesses_ = 0;
    std::uint64_t bytesAccessed_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_DRAM_HH

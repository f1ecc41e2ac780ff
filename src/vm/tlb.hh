/**
 * @file
 * Translation Lookaside Buffer used at both levels (Table 2): per-CU L1
 * TLB (32-entry fully associative, 1-cycle) and per-GPU shared L2 TLB
 * (512-entry 8-way, 10-cycle), each with an MSHR file merging concurrent
 * misses to the same page.
 */

#ifndef NETCRAFTER_VM_TLB_HH
#define NETCRAFTER_VM_TLB_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/ring_queue.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"
#include "src/sim/waiter_table.hh"

namespace netcrafter::vm {

/** A completed translation: where the page lives. */
struct Translation
{
    GpuId owner = 0;
};

/** Configuration for one TLB. */
struct TlbParams
{
    std::uint32_t entries = 32;

    /** Ways; entries for fully-associative. */
    std::uint32_t assoc = 32;

    Tick lookupLatency = 1;
    std::size_t mshrEntries = 8;
};

/**
 * A TLB level. On a miss the request goes to the miss handler (the next
 * TLB level or the GMMU). The MSHR capacity bounds how many distinct
 * misses are outstanding *below* this TLB; further primary misses wait
 * in an internal queue, so callers are never refused and never poll.
 */
class Tlb : public sim::SimObject
{
  public:
    /**
     * Translation continuation. Half of SmallFn's inline buffer, so a
     * scheduled hit can carry one together with its result inline.
     */
    using Callback = sim::InlineFn<void(Translation), 32>;

    /** Miss handler: resolve @p vpn, calling the callback when done. */
    using MissHandler = std::function<void(Addr vpn, Callback done)>;

    Tlb(sim::Engine &engine, std::string name, const TlbParams &params,
        MissHandler miss_handler);

    /** Translate the page of @p vpn; @p done fires when resolved. */
    void access(Addr vpn, Callback done);

    /** Install a translation (fills from below). */
    void insert(Addr vpn, Translation t);

    /** Probe without side effects (tests). */
    bool contains(Addr vpn) const;

    std::uint64_t accesses() const { return accesses_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Primary misses that had to queue for an MSHR slot. */
    std::uint64_t mshrQueued() const { return mshrQueued_; }

    /** Translations still waiting on a miss (census). */
    std::size_t
    inFlight() const
    {
        return pendingByVpn_.size() + queuedMisses_.size();
    }

  private:
    struct Way
    {
        Addr vpn = kAddrInvalid;
        Translation t;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

    std::uint32_t setOf(Addr vpn) const;
    Way *findWay(Addr vpn);
    const Way *findWay(Addr vpn) const;
    void startMiss(Addr vpn);
    void finishMiss(Addr vpn, Translation t);

    TlbParams params_;
    MissHandler missHandler_;
    std::uint32_t numSets_;
    std::vector<Way> ways_;
    std::uint64_t useClock_ = 0;

    /** vpn -> callbacks waiting for that translation (merged misses). */
    sim::WaiterTable<Addr, Callback> pendingByVpn_;

    /** Primary misses waiting for one of the mshrEntries slots. */
    sim::RingQueue<Addr> queuedMisses_;
    std::size_t activeBelow_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t mshrQueued_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::vm

#endif // NETCRAFTER_VM_TLB_HH

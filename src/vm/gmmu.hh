/**
 * @file
 * GPU Memory Management Unit (Section 2.3): a Page Walk Cache holding
 * upper-level (1-3) page table entries plus a pool of parallel page
 * table walkers. Depending on the PWC longest-prefix match a walk costs
 * 1 to 4 PTE fetches, each of which goes through the L2 cache of the GPU
 * owning that page-table page — possibly across the inter-cluster
 * network as PageTableReq/PageTableRsp packets.
 */

#ifndef NETCRAFTER_VM_GMMU_HH
#define NETCRAFTER_VM_GMMU_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/ring_queue.hh"
#include "src/sim/sim_object.hh"
#include "src/sim/small_fn.hh"
#include "src/sim/waiter_table.hh"
#include "src/vm/page_table.hh"
#include "src/vm/tlb.hh"

namespace netcrafter::vm {

/** GMMU configuration (Table 2). */
struct GmmuParams
{
    std::uint32_t pwcEntries = 32;
    Tick pwcLatency = 10;
    std::uint32_t walkers = 16;
};

/**
 * Small fully-associative LRU cache of upper-level PTEs: a fixed array
 * of tags with per-entry last-use stamps (the PWC holds a few dozen
 * entries, so a linear scan beats any index).
 */
class PageWalkCache
{
  public:
    explicit PageWalkCache(std::uint32_t entries) : entries_(entries)
    {
        keys_.reserve(entries);
        lastUse_.reserve(entries);
    }

    /**
     * Deepest level in {1..3} whose entry for @p vaddr is cached such
     * that all shallower levels are implied resolved. Touches the
     * matching entry's recency. Returns 0 when nothing matches (full
     * walk needed).
     */
    int deepestMatch(Addr vaddr);

    /** Install the entry of @p level (1..3) covering @p vaddr. */
    void insert(int level, Addr vaddr);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t lookups() const { return lookups_; }

  private:
    static Addr
    key(int level, Addr vaddr)
    {
        return (static_cast<Addr>(level) << 58) ^
               PageTable::prefix(level, vaddr);
    }

    /** Index of @p key, or keys_.size() when absent. */
    std::size_t slotOf(Addr key) const;

    std::uint32_t entries_;

    /** Cached keys; the array fills up to entries_, then recycles. */
    std::vector<Addr> keys_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t useClock_ = 0;
    mutable std::uint64_t hits_ = 0;
    mutable std::uint64_t lookups_ = 0;
};

/** The GMMU: PWC + parallel walkers. */
class Gmmu : public sim::SimObject
{
  public:
    using Callback = Tlb::Callback;

    /**
     * Fetches one PTE (a memory read of the line holding it) and calls
     * back when the data arrived; local or remote is the GPU system's
     * concern.
     */
    using PteFetchFn =
        std::function<void(const WalkStep &, sim::SmallFn done)>;

    Gmmu(sim::Engine &engine, std::string name, const GmmuParams &params,
         const PageTable &page_table, PteFetchFn fetch);

    /**
     * Start (or join) a walk for @p vpn. Walks beyond the walker count
     * queue; the upstream TLB MSHRs bound how many can be pending.
     */
    void walk(Addr vpn, Callback done);

    std::uint64_t walksStarted() const { return walksStarted_; }
    std::uint64_t pteFetches() const { return pteFetches_; }
    const PageWalkCache &pwc() const { return pwc_; }

    /** Translations waiting on walks, queued or running (census). */
    std::size_t inFlight() const { return waiters_.size(); }

    /** Mean PTE fetches per completed walk. */
    double
    meanWalkLength() const
    {
        return walksCompleted_
                   ? static_cast<double>(pteFetches_) / walksCompleted_
                   : 0.0;
    }

  private:
    void beginNextWalk();
    void runWalk(Addr vpn, int level);
    void finishWalk(Addr vpn);

    GmmuParams params_;
    const PageTable &pageTable_;
    PteFetchFn fetch_;
    PageWalkCache pwc_;

    sim::WaiterTable<Addr, Callback> waiters_;
    sim::RingQueue<Addr> queued_;
    std::uint32_t activeWalkers_ = 0;

    std::uint64_t walksStarted_ = 0;
    std::uint64_t walksCompleted_ = 0;
    std::uint64_t pteFetches_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::vm

#endif // NETCRAFTER_VM_GMMU_HH

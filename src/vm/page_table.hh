/**
 * @file
 * Four-level radix page table with NUMA-aware placement (Section 2.3).
 * Data pages are placed on GPUs by LASP; each leaf PTE page (mapping a
 * 2 MB virtual region) is co-located with the first data page placed in
 * that region, mirroring Linux's NUMA-aware PTE placement.
 *
 * PTEs live at synthetic physical addresses inside a reserved region so
 * they are cached in the L2 like data (Section 2.3) and eight adjacent
 * PTEs share a cache line.
 */

#ifndef NETCRAFTER_VM_PAGE_TABLE_HH
#define NETCRAFTER_VM_PAGE_TABLE_HH

#include <cstdint>

#include "src/sim/flat_map.hh"
#include "src/sim/types.hh"

namespace netcrafter::vm {

/** Levels of the radix tree: 1 (root) .. 4 (leaf). */
inline constexpr int kPageTableLevels = 4;

/** Base of the reserved synthetic PTE address region. */
inline constexpr Addr kPteRegionBase = 0xF000'0000'0000ull;

/** Bytes of one page table entry. */
inline constexpr std::uint32_t kPteBytes = 8;

/** One step of a page walk: where the PTE lives. */
struct WalkStep
{
    Addr pteAddr = 0;
    GpuId owner = 0;
};

/**
 * The shared page table of the unified virtual memory space. Also the
 * authority on data-page ownership (where LASP placed each page).
 */
class PageTable
{
  public:
    explicit PageTable(std::uint32_t num_gpus) : numGpus_(num_gpus) {}

    /**
     * Record that virtual page containing @p vaddr lives on @p owner.
     * The first placement in a 2 MB region pins that region's leaf PTE
     * page to the same GPU.
     */
    void place(Addr vaddr, GpuId owner);

    /** Owner GPU of the data page containing @p addr. */
    GpuId dataOwner(Addr addr) const;

    /** True when the page containing @p addr has been placed. */
    bool isPlaced(Addr addr) const;

    /**
     * The PTE access of @p level (1..4) for translating @p vaddr:
     * synthetic PTE address and the GPU that stores it.
     */
    WalkStep step(int level, Addr vaddr) const;

    /** Index prefix of @p vaddr at @p level (the PWC tag). */
    static Addr
    prefix(int level, Addr vaddr)
    {
        // Leaf (4) covers 4 KB -> shift 12; each level up adds 9 bits.
        const int shift = 12 + 9 * (kPageTableLevels - level);
        return vaddr >> shift;
    }

    /** Number of placed pages. */
    std::size_t placedPages() const { return pageOwner_.size(); }

    std::uint32_t numGpus() const { return numGpus_; }

  private:
    std::uint32_t numGpus_;

    /** virtual page number -> owner GPU. */
    sim::FlatMap<Addr, GpuId> pageOwner_;

    /** 2MB-region index -> owner GPU of its leaf PTE page. */
    sim::FlatMap<Addr, GpuId> ptePageOwner_;
};

} // namespace netcrafter::vm

#endif // NETCRAFTER_VM_PAGE_TABLE_HH

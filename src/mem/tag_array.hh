/**
 * @file
 * Set-associative tag array with LRU replacement and optional per-sector
 * valid bits (for the sectored L1 designs of Sections 4.3 and 5.3).
 */

#ifndef NETCRAFTER_MEM_TAG_ARRAY_HH
#define NETCRAFTER_MEM_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

#include "src/sim/types.hh"

namespace netcrafter::mem {

/** Bitmask over the sectors of one cache line. */
using SectorMask = std::uint64_t;

/** Mask covering every sector of a line. */
constexpr SectorMask
fullMask(std::uint32_t num_sectors)
{
    return num_sectors >= 64 ? ~0ull : ((1ull << num_sectors) - 1);
}

/** Result of filling a line: the victim, if a valid line was evicted. */
struct Eviction
{
    bool valid = false;
    Addr line = kAddrInvalid;
    bool dirty = false;
};

/**
 * LRU set-associative tag array. Data values are not stored (this is a
 * timing simulator); only tags, per-sector valid bits, and dirty bits.
 *
 * Layout: each set's tags are contiguous (an empty way holds
 * kAddrInvalid, which is never a line address), so a lookup scans one
 * dense run of 8-byte tags. Valid masks, dirty bits and LRU state live
 * in parallel arrays and are touched only for the way a lookup found.
 * Recency is a per-set rank (0 = most recently used): the valid ways of
 * a set always hold the ranks 0..k-1, so the LRU victim of a full set is
 * the way ranked assoc-1, and the first invalid way wins otherwise.
 *
 * Callers look a line up once per access with find() and then act on
 * the returned way; the line-addressed helpers are conveniences over
 * the same lookup.
 */
class TagArray
{
  public:
    /** find() result for an absent line. */
    static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

    /**
     * @param size_bytes total capacity.
     * @param assoc ways per set (at most 255).
     * @param line_bytes cache line size.
     * @param sector_bytes sector size; pass line_bytes for an
     *        unsectored cache (one sector spanning the line).
     */
    TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
             std::uint32_t line_bytes, std::uint32_t sector_bytes);

    /** Number of sectors per line. */
    std::uint32_t sectorsPerLine() const { return sectorsPerLine_; }

    /** Sector size in bytes. */
    std::uint32_t sectorBytes() const { return sectorBytes_; }

    /** The way holding @p line, or kNoWay. */
    std::uint32_t
    find(Addr line) const
    {
        const std::uint32_t base = setOf(line) * assoc_;
        for (std::uint32_t w = base; w < base + assoc_; ++w) {
            if (tags_[w] == line)
                return w;
        }
        return kNoWay;
    }

    /** Valid-sector mask of a way find() returned. */
    SectorMask sectors(std::uint32_t way) const { return valid_[way]; }

    /** LRU-touch a way find() returned. */
    void touchWay(std::uint32_t way);

    /** Mark a way find() returned dirty. */
    void markDirtyWay(std::uint32_t way) { dirty_[way] = 1; }

    /** True when the line's tag is present (any sector valid). */
    bool present(Addr line) const { return find(line) != kNoWay; }

    /** Valid-sector mask of @p line (0 when absent). */
    SectorMask validSectors(Addr line) const;

    /** True when every sector in @p needed is valid for @p line. */
    bool
    covers(Addr line, SectorMask needed) const
    {
        return (validSectors(line) & needed) == needed;
    }

    /**
     * Install (or extend) @p line with the sectors in @p mask, touching
     * LRU. Returns the eviction performed, if any.
     */
    Eviction fill(Addr line, SectorMask mask);

    /** LRU-touch @p line (on hit). No-op when absent. */
    void touch(Addr line);

    /** Mark @p line dirty. No-op when absent. */
    void markDirty(Addr line);

    /** Drop @p line; returns true if it was present. */
    bool invalidate(Addr line);

    /** Mask of sectors covering [offset, offset+bytes) within a line. */
    SectorMask sectorsForRange(std::uint32_t offset,
                               std::uint32_t bytes) const;

    std::uint32_t numSets() const { return numSets_; }
    std::uint64_t fills() const { return fills_; }
    std::uint64_t evictions() const { return evictions_; }

  private:
    std::uint32_t
    setOf(Addr line) const
    {
        return static_cast<std::uint32_t>((line / lineBytes_) % numSets_);
    }

    std::uint32_t assoc_;
    std::uint32_t lineBytes_;
    std::uint32_t sectorBytes_;
    std::uint32_t sectorsPerLine_;
    std::uint32_t numSets_;
    std::vector<Addr> tags_;
    std::vector<SectorMask> valid_;
    std::vector<std::uint8_t> rank_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t fills_ = 0;
    std::uint64_t evictions_ = 0;
};

} // namespace netcrafter::mem

#endif // NETCRAFTER_MEM_TAG_ARRAY_HH

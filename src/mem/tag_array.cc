#include "src/mem/tag_array.hh"

#include "src/sim/logging.hh"

namespace netcrafter::mem {

TagArray::TagArray(std::uint64_t size_bytes, std::uint32_t assoc,
                   std::uint32_t line_bytes, std::uint32_t sector_bytes)
    : assoc_(assoc), lineBytes_(line_bytes), sectorBytes_(sector_bytes),
      sectorsPerLine_(line_bytes / sector_bytes)
{
    NC_ASSERT(sector_bytes > 0 && line_bytes % sector_bytes == 0,
              "sector size must divide line size");
    NC_ASSERT(assoc_ > 0 && assoc_ <= 255,
              "associativity must be 1..255: ", assoc_);
    const std::uint64_t lines = size_bytes / line_bytes;
    NC_ASSERT(lines >= assoc_, "cache smaller than one set");
    numSets_ = static_cast<std::uint32_t>(lines / assoc_);
    NC_ASSERT(numSets_ > 0, "cache must have at least one set");
    const std::size_t ways = static_cast<std::size_t>(numSets_) * assoc_;
    tags_.assign(ways, kAddrInvalid);
    valid_.assign(ways, 0);
    rank_.assign(ways, 0);
    dirty_.assign(ways, 0);
}

void
TagArray::touchWay(std::uint32_t way)
{
    // Ranks of invalid ways are never read, so they may drift freely.
    const std::uint8_t r = rank_[way];
    if (r == 0)
        return; // already the most recent
    const std::uint32_t base = way - way % assoc_;
    for (std::uint32_t w = base; w < base + assoc_; ++w) {
        if (rank_[w] < r)
            ++rank_[w];
    }
    rank_[way] = 0;
}

SectorMask
TagArray::validSectors(Addr line) const
{
    const std::uint32_t way = find(line);
    return way == kNoWay ? 0 : valid_[way];
}

Eviction
TagArray::fill(Addr line, SectorMask mask)
{
    NC_ASSERT(mask != 0, "fill with empty sector mask");
    NC_ASSERT(line != kAddrInvalid, "fill of the invalid address");
    ++fills_;
    const std::uint32_t base = setOf(line) * assoc_;
    std::uint32_t empty = kNoWay;
    for (std::uint32_t w = base; w < base + assoc_; ++w) {
        if (tags_[w] == line) {
            valid_[w] |= mask;
            touchWay(w);
            return Eviction{};
        }
        if (empty == kNoWay && tags_[w] == kAddrInvalid)
            empty = w;
    }

    Eviction ev;
    std::uint32_t victim = empty;
    if (victim == kNoWay) {
        // Full set: the valid ranks are 0..assoc-1; evict the oldest.
        victim = base;
        for (std::uint32_t w = base; w < base + assoc_; ++w) {
            if (rank_[w] > rank_[victim])
                victim = w;
        }
        ev.valid = true;
        ev.line = tags_[victim];
        ev.dirty = dirty_[victim] != 0;
        ++evictions_;
    }
    // The new line becomes most recent: every other way ages by one.
    for (std::uint32_t w = base; w < base + assoc_; ++w)
        ++rank_[w];
    rank_[victim] = 0;
    tags_[victim] = line;
    valid_[victim] = mask;
    dirty_[victim] = 0;
    return ev;
}

void
TagArray::touch(Addr line)
{
    const std::uint32_t way = find(line);
    if (way != kNoWay)
        touchWay(way);
}

void
TagArray::markDirty(Addr line)
{
    const std::uint32_t way = find(line);
    if (way != kNoWay)
        dirty_[way] = 1;
}

bool
TagArray::invalidate(Addr line)
{
    const std::uint32_t way = find(line);
    if (way == kNoWay)
        return false;
    // Close the rank gap so the valid ways keep ranks 0..k-1.
    const std::uint32_t base = way - way % assoc_;
    for (std::uint32_t w = base; w < base + assoc_; ++w) {
        if (rank_[w] > rank_[way])
            --rank_[w];
    }
    tags_[way] = kAddrInvalid;
    valid_[way] = 0;
    dirty_[way] = 0;
    return true;
}

SectorMask
TagArray::sectorsForRange(std::uint32_t offset, std::uint32_t bytes) const
{
    NC_ASSERT(bytes > 0 && offset + bytes <= lineBytes_,
              "byte range outside line: offset=", offset, " bytes=",
              bytes);
    const std::uint32_t first = offset / sectorBytes_;
    const std::uint32_t last = (offset + bytes - 1) / sectorBytes_;
    SectorMask mask = 0;
    for (std::uint32_t s = first; s <= last; ++s)
        mask |= 1ull << s;
    return mask;
}

} // namespace netcrafter::mem

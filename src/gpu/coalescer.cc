#include "src/gpu/coalescer.hh"

#include <algorithm>
#include <array>

namespace netcrafter::gpu {

CoalescedAccesses
coalesce(const workloads::Instruction &instr)
{
    CoalescedAccesses out;
    CoalescedAccess *items = out.storage_.items;
    // Line -> position index: open addressing over twice the maximum
    // line count, slots holding position + 1 (0 = empty).
    constexpr std::size_t kSlots = 2 * kWavefrontSize;
    std::array<std::uint8_t, kSlots> index{};
    for (Addr addr : instr.addrs) {
        if (addr == kAddrInvalid)
            continue;
        const Addr line = lineAddr(addr);
        const std::uint32_t first =
            static_cast<std::uint32_t>(addr - line);
        std::uint32_t last = first + instr.elemBytes - 1;
        // An element straddling the line boundary clamps to this line;
        // a second access for the spill-over would be negligible and the
        // generators avoid straddles anyway.
        last = std::min(last, kCacheLineBytes - 1);

        std::size_t slot =
            static_cast<std::size_t>(((line / kCacheLineBytes) *
                                      0x9E3779B97F4A7C15ull) >>
                                     57) & (kSlots - 1);
        while (index[slot] != 0 && items[index[slot] - 1].line != line)
            slot = (slot + 1) & (kSlots - 1);
        if (index[slot] == 0) {
            items[out.size_] = CoalescedAccess{line, first,
                                               last - first + 1,
                                               instr.isWrite};
            index[slot] = static_cast<std::uint8_t>(++out.size_);
        } else {
            CoalescedAccess &a = items[index[slot] - 1];
            const std::uint32_t lo = std::min(a.offset, first);
            const std::uint32_t hi = std::max(a.offset + a.bytes - 1,
                                              last);
            a.offset = lo;
            a.bytes = hi - lo + 1;
        }
    }
    return out;
}

} // namespace netcrafter::gpu

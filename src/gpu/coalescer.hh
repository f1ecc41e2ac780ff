/**
 * @file
 * Hardware memory coalescer (Section 2.1): merges the per-thread
 * addresses of one wavefront instruction into per-cache-line accesses,
 * recording the byte span each line access actually needs — the signal
 * Trimming exploits (Observation 2, Figure 7).
 */

#ifndef NETCRAFTER_GPU_COALESCER_HH
#define NETCRAFTER_GPU_COALESCER_HH

#include <cstdint>

#include "src/workloads/workload.hh"

namespace netcrafter::gpu {

/** One coalesced per-line access. */
struct CoalescedAccess
{
    /** 64B-aligned line address. */
    Addr line = 0;

    /** First needed byte within the line. */
    std::uint32_t offset = 0;

    /** Needed byte span within the line (1..64). */
    std::uint32_t bytes = 0;

    bool isWrite = false;
};

/**
 * The line accesses of one instruction, in first-touch order. A
 * wavefront touches at most kWavefrontSize lines, so the list lives
 * inline; only the first size() entries are ever written.
 */
class CoalescedAccesses
{
  public:
    CoalescedAccesses() {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    const CoalescedAccess &
    operator[](std::size_t i) const
    {
        return storage_.items[i];
    }

    const CoalescedAccess *begin() const { return storage_.items; }
    const CoalescedAccess *end() const { return storage_.items + size_; }

  private:
    friend CoalescedAccesses coalesce(const workloads::Instruction &);

    /** Uninitialized slots: zeroing all 64 per instruction is wasted. */
    union Storage
    {
        Storage() {}
        CoalescedAccess items[kWavefrontSize];
    };

    std::uint32_t size_ = 0;
    Storage storage_;
};

/**
 * Coalesce @p instr into per-line accesses, ordered by first touch.
 * Inactive lanes (kAddrInvalid) are skipped.
 */
CoalescedAccesses coalesce(const workloads::Instruction &instr);

} // namespace netcrafter::gpu

#endif // NETCRAFTER_GPU_COALESCER_HH

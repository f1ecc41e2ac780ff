/**
 * @file
 * Serving traffic classes. A request belongs to one of three fixed
 * classes whose memory behaviour is built from the same AccessStream
 * generators the Table 3 workload models use:
 *
 *  - read  (ReadHeavy): adjacent + hot-region random reads — bulk data
 *    traffic, mostly full cache lines;
 *  - write (WriteHeavy): streaming writes with a read tail — exercises
 *    the write path and write-ack traffic;
 *  - ptw   (PtwHeavy): page-granular random reads over a TLB-reach-
 *    exceeding footprint — every access risks a page walk, the
 *    latency-critical class the paper's Sequencing mechanism protects.
 *
 * The class set is fixed (not user-defined) so per-class percentile
 * columns have a stable schema in every exporter.
 */

#ifndef NETCRAFTER_SERVE_TRAFFIC_CLASS_HH
#define NETCRAFTER_SERVE_TRAFFIC_CLASS_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "src/workloads/mix_kernel.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::serve {

enum class TrafficClass : std::uint8_t
{
    ReadHeavy = 0,
    WriteHeavy = 1,
    PtwHeavy = 2,
};

/** Number of traffic classes (fixed schema). */
inline constexpr std::size_t kNumTrafficClasses = 3;

/** Stable short name: "read", "write", "ptw". */
const char *trafficClassName(TrafficClass cls);

/** Relative request-rate weights of the three classes. */
struct ClassMix
{
    /** Indexed by TrafficClass; normalized by totalWeight(). */
    std::array<double, kNumTrafficClasses> weight{0.6, 0.25, 0.15};

    double totalWeight() const;

    /** Normalized share of class @p cls in [0, 1]. */
    double share(TrafficClass cls) const;

    /** Canonical "r:w:p" form (round-trip precision). */
    std::string toString() const;

    /** NC_FATAL unless every weight is finite, >= 0, and sum > 0. */
    void validate() const;
};

/**
 * Parse "r:w:p" (e.g. "0.6:0.25:0.15"); NC_FATAL on junk. A non-null
 * @p what (the flag or variable the text came from) prefixes the
 * message.
 */
ClassMix parseClassMix(const std::string &text, const char *what = nullptr);

/**
 * The per-class request kernels, built once per serving session.
 * Kernel shape: numCtas = numGpus (a request dispatched on GPU g runs
 * as CTA g, so PartitionedRandom streams stay in g's chunk),
 * wavesPerCta unbounded (the wave id is the stream-local request
 * index), instructionsPerWave = the class's request length.
 */
struct ClassKernels
{
    std::array<std::unique_ptr<workloads::MixKernel>,
               kNumTrafficClasses>
        kernels;

    const workloads::MixKernel &of(TrafficClass cls) const
    {
        return *kernels[static_cast<std::size_t>(cls)];
    }
};

/**
 * Allocate and LASP-place the class buffers through @p ctx and build
 * the three request kernels. @p ctx.scale multiplies footprints (not
 * request lengths — a request's work is part of the serving contract,
 * not the problem size).
 */
ClassKernels buildClassKernels(workloads::BuildContext &ctx);

} // namespace netcrafter::serve

#endif // NETCRAFTER_SERVE_TRAFFIC_CLASS_HH

/**
 * @file
 * Open-loop arrival processes. Each request stream owns an
 * ArrivalSequence that turns counter-based random draws
 * (sim::CounterRng — pure functions of (seed, stream, draw index))
 * into inter-arrival gaps. Because no generator state is shared
 * between streams, the arrival tick of request n of stream s is the
 * same number whether the simulation runs serially, on 4 engine
 * shards, or under any sweep-scheduler thread count — the determinism
 * precondition for bit-identical saturation curves.
 */

#ifndef NETCRAFTER_SERVE_ARRIVAL_HH
#define NETCRAFTER_SERVE_ARRIVAL_HH

#include <cstdint>
#include <string>

#include "src/sim/random.hh"
#include "src/sim/types.hh"

namespace netcrafter::serve {

/** The shape of a stream's inter-arrival process. */
enum class ArrivalKind : std::uint8_t
{
    /** Exponential gaps: memoryless, the classic open-loop reference. */
    Poisson = 0,

    /** Gaps uniform in (0, 2 * mean]: same rate, bounded burstiness. */
    Uniform = 1,

    /**
     * Markov-modulated on/off: bursts of closely spaced requests
     * (mean gap duty * mean) separated by off periods sized so the
     * long-run rate still matches the offered load.
     */
    Bursty = 2,
};

/** Stable lower-case name ("poisson", "uniform", "bursty"). */
const char *arrivalKindName(ArrivalKind kind);

/**
 * Inverse of arrivalKindName; NC_FATAL on anything else. A non-null
 * @p what (the flag or variable the text came from) prefixes the
 * message.
 */
ArrivalKind parseArrivalKind(const std::string &text,
                             const char *what = nullptr);

/** Bursty-process shape knobs (ignored by the other kinds). */
struct BurstParams
{
    /** Fraction of time the stream is "on"; on-gaps = duty * mean. */
    double duty = 0.25;

    /** Mean requests per burst (geometric-ish, always >= 1). */
    double meanBurst = 16.0;
};

/**
 * Generator of one stream's inter-arrival gaps. next() returns the gap
 * (>= 1 tick) before the stream's next request. Every random draw is
 * CounterRng::uniform(seed, stream, drawCounter++), so rebuilding the
 * sequence with the same (kind, seed, stream, mean gap) replays it
 * exactly — tests regenerate and cross-check streams this way.
 */
class ArrivalSequence
{
  public:
    ArrivalSequence(ArrivalKind kind, std::uint64_t seed,
                    std::uint64_t stream, double mean_gap_ticks,
                    BurstParams burst = {});

    /** Gap in ticks before the next arrival (always >= 1). */
    Tick next();

    /** Arrivals generated so far. */
    std::uint64_t generated() const { return generated_; }

    double meanGapTicks() const { return meanGap_; }

  private:
    /** The next counter-based uniform draw in [0, 1). */
    double u() { return CounterRng::uniform(seed_, stream_, draws_++); }

    /** Exponential variate with mean @p mean, from one draw. */
    double expDraw(double mean);

    ArrivalKind kind_;
    std::uint64_t seed_;
    std::uint64_t stream_;
    double meanGap_;
    BurstParams burst_;

    std::uint64_t draws_ = 0;
    std::uint64_t generated_ = 0;

    /** Bursty state: requests left in the current on-period. */
    std::uint64_t burstLeft_ = 0;
};

} // namespace netcrafter::serve

#endif // NETCRAFTER_SERVE_ARRIVAL_HH

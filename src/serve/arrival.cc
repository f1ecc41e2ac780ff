#include "src/serve/arrival.hh"

#include <cmath>

#include "src/sim/logging.hh"

namespace netcrafter::serve {

const char *
arrivalKindName(ArrivalKind kind)
{
    switch (kind) {
      case ArrivalKind::Poisson: return "poisson";
      case ArrivalKind::Uniform: return "uniform";
      case ArrivalKind::Bursty: return "bursty";
    }
    return "(invalid)";
}

ArrivalKind
parseArrivalKind(const std::string &text, const char *what)
{
    if (text == "poisson")
        return ArrivalKind::Poisson;
    if (text == "uniform")
        return ArrivalKind::Uniform;
    if (text == "bursty")
        return ArrivalKind::Bursty;
    NC_FATAL(what ? what : "", what ? ": " : "",
             "unknown arrival process '", text,
             "' (want poisson|uniform|bursty)");
}

ArrivalSequence::ArrivalSequence(ArrivalKind kind, std::uint64_t seed,
                                 std::uint64_t stream,
                                 double mean_gap_ticks,
                                 BurstParams burst)
    : kind_(kind), seed_(seed), stream_(stream),
      meanGap_(mean_gap_ticks), burst_(burst)
{
    NC_ASSERT(meanGap_ >= 1.0,
              "arrival mean gap must be >= 1 tick, got ", meanGap_);
    NC_ASSERT(burst_.duty > 0.0 && burst_.duty <= 1.0,
              "burst duty must be in (0,1], got ", burst_.duty);
    NC_ASSERT(burst_.meanBurst >= 1.0,
              "mean burst length must be >= 1, got ", burst_.meanBurst);
}

double
ArrivalSequence::expDraw(double mean)
{
    // u in [0, 1) so log(1 - u) is finite.
    return -std::log(1.0 - u()) * mean;
}

Tick
ArrivalSequence::next()
{
    double gap = 0;
    switch (kind_) {
      case ArrivalKind::Poisson:
        gap = expDraw(meanGap_);
        break;
      case ArrivalKind::Uniform:
        gap = u() * 2.0 * meanGap_;
        break;
      case ArrivalKind::Bursty: {
        if (burstLeft_ == 0) {
            // Start a new on-period: draw its length, and charge the
            // off-period up front so the long-run rate stays at
            // 1/meanGap: K arrivals take K*duty*mean on-time plus
            // K*(1-duty)*mean off-time on average.
            const double k = 1.0 + expDraw(burst_.meanBurst - 1.0);
            burstLeft_ = static_cast<std::uint64_t>(std::llround(k));
            gap = expDraw(static_cast<double>(burstLeft_) * meanGap_ *
                          (1.0 - burst_.duty));
        }
        --burstLeft_;
        gap += expDraw(meanGap_ * burst_.duty);
        break;
      }
    }
    ++generated_;
    const auto ticks = static_cast<Tick>(std::llround(gap));
    return ticks < 1 ? 1 : ticks;
}

} // namespace netcrafter::serve

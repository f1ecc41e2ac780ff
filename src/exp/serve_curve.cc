#include "src/exp/serve_curve.hh"

#include <cmath>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "src/sim/logging.hh"

namespace netcrafter::exp {

namespace {

std::string
loadLabel(double load)
{
    std::ostringstream os;
    os << load;
    return os.str();
}

} // namespace

std::vector<double>
serveCurveLoads(const ServeCurveSpec &spec)
{
    NC_ASSERT(spec.loadStart > 0, "serve curve must start at a "
              "positive load, got ", spec.loadStart);
    NC_ASSERT(spec.loadStep > 0, "serve curve needs a positive load "
              "step, got ", spec.loadStep);
    NC_ASSERT(spec.loadStop >= spec.loadStart,
              "serve curve range is empty: ", spec.loadStart, "..",
              spec.loadStop);
    // Check the point count before converting it: a non-finite or huge
    // count has no std::size_t value.
    const double count =
        std::floor((spec.loadStop - spec.loadStart) / spec.loadStep +
                   1e-9) + 1;
    if (!(count < static_cast<double>(
                      std::numeric_limits<std::size_t>::max())))
        NC_FATAL("serve curve range start=", spec.loadStart,
                 " stop=", spec.loadStop, " step=", spec.loadStep,
                 " has too many load points");
    std::vector<double> loads;
    // Step by index, not by accumulation, so the points are exactly
    // start + i*step regardless of length.
    const auto n = static_cast<std::size_t>(count);
    loads.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        loads.push_back(spec.loadStart +
                        static_cast<double>(i) * spec.loadStep);
    return loads;
}

SweepSpec
serveCurveSweep(const ServeCurveSpec &spec)
{
    NC_ASSERT(!spec.configs.empty(),
              "serve curve needs at least one configuration");
    const std::vector<double> loads = serveCurveLoads(spec);

    SweepSpec sweep("serve-curve");
    for (const ConfigPoint &cp : spec.configs) {
        for (double load : loads) {
            serve::ServeConfig sc = spec.serve;
            sc.enabled = true;
            sc.offeredLoad = load;
            sc.validate();
            Job &job = sweep.add(
                cp.label + "/load=" + loadLabel(load),
                std::string("serve-") +
                    serve::arrivalKindName(sc.arrival),
                cp.config, spec.scale);
            job.serve = sc;
        }
    }
    return sweep;
}

ServeCurveResult
runServeCurve(Scheduler &scheduler, const ServeCurveSpec &spec)
{
    const SweepSpec sweep = serveCurveSweep(spec);
    const SweepResult raw = scheduler.run(sweep);
    const std::vector<double> loads = serveCurveLoads(spec);

    ServeCurveResult out;
    for (const ConfigPoint &cp : spec.configs) {
        double baseP99 = 0;
        for (double load : loads) {
            const harness::RunResult &r =
                raw.at(cp.label + "/load=" + loadLabel(load));
            out.points.push_back(ServeCurvePoint{cp.label, load, r});

            const auto p99 = static_cast<double>(
                r.serveClasses[3].p99);
            if (load == loads.front())
                baseP99 = p99;
            // The knee: first load whose aggregate p99 exceeds
            // kneeFactor x the low-load p99 of the same curve.
            if (baseP99 > 0 && p99 > spec.kneeFactor * baseP99 &&
                out.kneeLoad.find(cp.label) == out.kneeLoad.end()) {
                out.kneeLoad.emplace(cp.label, load);
            }
        }
    }
    return out;
}

void
printServeCurve(const ServeCurveResult &result, std::ostream &os)
{
    os << std::left << std::setw(22) << "config" << std::right
       << std::setw(8) << "load" << std::setw(10) << "xput"
       << std::setw(10) << "read_p99" << std::setw(10) << "write_p99"
       << std::setw(10) << "ptw_p99" << std::setw(10) << "all_p50"
       << std::setw(10) << "all_p99" << std::setw(10) << "all_p999"
       << std::setw(10) << "inflight" << "\n";
    for (const ServeCurvePoint &p : result.points) {
        os << std::left << std::setw(22) << p.configLabel << std::right
           << std::setw(8) << p.load << std::setw(10) << std::fixed
           << std::setprecision(2) << p.result.serveThroughput
           << std::defaultfloat << std::setw(10)
           << p.result.serveClasses[0].p99 << std::setw(10)
           << p.result.serveClasses[1].p99 << std::setw(10)
           << p.result.serveClasses[2].p99 << std::setw(10)
           << p.result.serveClasses[3].p50 << std::setw(10)
           << p.result.serveClasses[3].p99 << std::setw(10)
           << p.result.serveClasses[3].p999 << std::setw(10)
           << p.result.servePeakInflight << "\n";
    }
    for (const auto &[label, knee] : result.kneeLoad)
        os << "knee " << label << ": " << knee << " req/kcycle\n";
    if (result.kneeLoad.empty())
        os << "knee: none within the swept range\n";
}

} // namespace netcrafter::exp

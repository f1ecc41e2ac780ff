/**
 * @file
 * Machine-readable exporters: sweep / cache results as JSON or CSV and
 * a stats::Registry as JSON, alongside the human-oriented table
 * printer. Both result formats take their columns from the metric
 * table (src/harness/run_metrics.def), so their schemas cannot drift
 * apart.
 */

#ifndef NETCRAFTER_EXP_EXPORT_HH
#define NETCRAFTER_EXP_EXPORT_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/exp/result_cache.hh"
#include "src/exp/scheduler.hh"
#include "src/harness/runner.hh"
#include "src/stats/stats.hh"

namespace netcrafter::exp {

/** One exportable row: an identified RunResult. */
struct ExportRecord
{
    /** Job name within its sweep; empty for anonymous cache entries. */
    std::string label;

    std::uint64_t configDigest = 0;
    double scale = 1.0;
    harness::RunResult result;
};

/** Every job of a finished sweep, in spec order. */
std::vector<ExportRecord> recordsFromSweep(const SweepSpec &spec,
                                           const SweepResult &result);

/**
 * Every job a scheduler has run across all its sweeps, labelled with
 * sweep-qualified job names ("<sweep>/<job>").
 */
std::vector<ExportRecord> recordsFromScheduler(const Scheduler &scheduler);

/** Every completed cache entry, key-ordered. */
std::vector<ExportRecord> recordsFromCache(const ResultCache &cache);

/** CSV with a header row; one line per record. */
void writeCsv(const std::vector<ExportRecord> &records, std::ostream &os);

/** JSON object {"results": [...]} with one object per record. */
void writeJson(const std::vector<ExportRecord> &records, std::ostream &os);

/**
 * JSON object with "counters", "averages" and "distributions" sections
 * mirroring Registry::dump.
 */
void writeRegistryJson(const stats::Registry &registry, std::ostream &os);

/** Backslash-escape @p s for embedding in a JSON string literal. */
std::string jsonEscape(const std::string &s);

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_EXPORT_HH

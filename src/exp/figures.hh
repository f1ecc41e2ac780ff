/**
 * @file
 * Declarative figure definitions. Each migrated figure of the paper's
 * evaluation is a named entry that (1) declares its sweep — every
 * (workload, config, scale) point it needs — and (2) renders the
 * paper's rows from the collected results. The sweep runs through a
 * Scheduler, so figures share a ResultCache (the baseline is simulated
 * once per process, not once per figure) and parallelize across cores,
 * while the printed output stays byte-identical to the legacy serial
 * binaries.
 */

#ifndef NETCRAFTER_EXP_FIGURES_HH
#define NETCRAFTER_EXP_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/exp/scheduler.hh"
#include "src/harness/runner.hh"

namespace netcrafter::exp {

/** Everything a figure needs to run: a scheduler (with its cache) and
 *  the stream the paper's rows go to. */
struct FigureContext
{
    Scheduler &scheduler;
    std::ostream &out;
};

/** One reproducible figure of the evaluation. */
struct Figure
{
    const char *name;    // short id, e.g. "fig14"
    const char *caption; // banner caption
    void (*run)(FigureContext &ctx);
};

/** Every migrated figure, in paper order. */
const std::vector<Figure> &figureRegistry();

/** Figure by short id; null when unknown. */
const Figure *findFigure(const std::string &name);

/**
 * Entry point for the per-figure binaries: run one figure on stdout
 * with a private cache. Takes the shared run flags (--jobs, --shards,
 * --fidelity, --trace-out, --trace-level, --sample-interval) over
 * their NETCRAFTER_* variables (harness::overlayEnv), and starts
 * telemetry from the NETCRAFTER_HEARTBEAT_* / _WATCHDOG_* environment.
 * Returns a process exit code.
 */
int figureMain(const std::string &name, int argc, char **argv);

// --- Shared helpers (previously in bench/bench_common.hh) -------------

/** Baseline + Stitching with Selective Flit Pooling at the sweet spot. */
config::SystemConfig stitchSelective32();

/** Stitching(+SelPool) + Trimming. */
config::SystemConfig stitchTrim();

/** The full NetCrafter design point (adds Sequencing). */
config::SystemConfig fullNetcrafter();

/** Print the standard figure banner. */
void banner(std::ostream &os, const std::string &fig,
            const std::string &caption);

/** Speedup of @p v over @p base execution cycles. */
double speedup(const harness::RunResult &base,
               const harness::RunResult &v);

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_FIGURES_HH

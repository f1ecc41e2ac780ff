/**
 * @file
 * Declarative figure definitions: the one way a paper artifact is
 * produced. Each table and figure of the paper's evaluation, plus the
 * ablation, is a named entry that (1) declares its sweep — every
 * (workload, config, scale) point it needs — and (2) renders the
 * paper's rows from the collected results. The sweep runs through a
 * Scheduler, so figures share a ResultCache (the baseline is simulated
 * once per process, not once per figure) and parallelize across cores,
 * while the printed output is the same at any worker count.
 * netcrafter-sweep is the command-line front end.
 */

#ifndef NETCRAFTER_EXP_FIGURES_HH
#define NETCRAFTER_EXP_FIGURES_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "src/config/system_config.hh"
#include "src/exp/scheduler.hh"

namespace netcrafter::exp {

/** Everything a figure needs to run: a scheduler (with its cache) and
 *  the stream the paper's rows go to. */
struct FigureContext
{
    Scheduler &scheduler;
    std::ostream &out;
};

/** One reproducible table or figure of the evaluation. */
struct Figure
{
    const char *name;    // short id, e.g. "fig14"
    const char *caption; // one-line description for --list
    void (*run)(FigureContext &ctx);
};

/** Every table and figure, in paper order, then the ablation. */
const std::vector<Figure> &figureRegistry();

/** Figure by short id; null when unknown. */
const Figure *findFigure(const std::string &name);

// --- Shared helpers ----------------------------------------------------

/** Baseline + Stitching with Selective Flit Pooling at the sweet spot. */
config::SystemConfig stitchSelective32();

/** Stitching(+SelPool) + Trimming. */
config::SystemConfig stitchTrim();

/** The full NetCrafter design point (adds Sequencing). */
config::SystemConfig fullNetcrafter();

} // namespace netcrafter::exp

#endif // NETCRAFTER_EXP_FIGURES_HH

/**
 * @file
 * Simulation fidelity selection. The simulator can run each experiment
 * point at one of three fidelities:
 *
 *  - Cycle:  the classic flit-level event-driven path. The default, and
 *            bit-identical to what the simulator always produced.
 *  - Flow:   every network round trip rides the analytic flow model
 *            (src/flow/fidelity_controller.hh) from tick 0. Fastest,
 *            least faithful during warmup transients.
 *  - Hybrid: links start on the cycle-accurate flit path and hand
 *            steady-state traffic to the flow model once their measured
 *            epoch rates stabilize; instability escalates them back.
 *
 * Flow and Hybrid are restricted to single-shard execution: the fused
 * fast path completes a whole round trip in one event, which has no
 * meaningful decomposition across conservative shard barriers.
 */

#ifndef NETCRAFTER_FLOW_FIDELITY_HH
#define NETCRAFTER_FLOW_FIDELITY_HH

#include <optional>
#include <string>

namespace netcrafter::flow {

/** The three execution fidelities. */
enum class Fidelity : unsigned char
{
    Cycle = 0,
    Flow,
    Hybrid,
};

/** Short printable name ("cycle", "flow", "hybrid"). */
const char *fidelityName(Fidelity f);

/**
 * Parse a fidelity name. Accepts exactly "cycle", "flow" and "hybrid"
 * (lowercase); anything else returns nullopt so callers can produce a
 * context-specific fatal message.
 */
std::optional<Fidelity> parseFidelity(const std::string &text);

/**
 * Parse @p text (a --fidelity argument or the NETCRAFTER_FIDELITY
 * environment value) or die: unknown names NC_FATAL with the offending
 * text and the accepted spellings. @p what names the source of the
 * value in the error message.
 */
Fidelity parseFidelityOrDie(const std::string &text, const char *what);

} // namespace netcrafter::flow

#endif // NETCRAFTER_FLOW_FIDELITY_HH

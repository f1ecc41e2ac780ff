#include "src/flow/fidelity.hh"

#include "src/sim/logging.hh"

namespace netcrafter::flow {

const char *
fidelityName(Fidelity f)
{
    switch (f) {
      case Fidelity::Cycle:
        return "cycle";
      case Fidelity::Flow:
        return "flow";
      case Fidelity::Hybrid:
        return "hybrid";
    }
    return "?";
}

std::optional<Fidelity>
parseFidelity(const std::string &text)
{
    if (text == "cycle")
        return Fidelity::Cycle;
    if (text == "flow")
        return Fidelity::Flow;
    if (text == "hybrid")
        return Fidelity::Hybrid;
    return std::nullopt;
}

Fidelity
parseFidelityOrDie(const std::string &text, const char *what)
{
    const auto parsed = parseFidelity(text);
    if (!parsed) {
        NC_FATAL("invalid ", what, " value '", text,
                 "': expected cycle, flow or hybrid");
    }
    return *parsed;
}

} // namespace netcrafter::flow

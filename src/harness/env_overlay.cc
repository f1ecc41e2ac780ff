#include "src/harness/env_overlay.hh"

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "src/flow/fidelity.hh"
#include "src/obs/trace.hh"
#include "src/serve/arrival.hh"
#include "src/serve/traffic_class.hh"
#include "src/sim/logging.hh"

namespace netcrafter::harness {

namespace {

/** The shared run flags, each the command-line form of one variable. */
struct SharedFlag
{
    const char *flag;
    const char *var;
};

constexpr SharedFlag kSharedFlags[] = {
    {"--jobs", "NETCRAFTER_JOBS"},
    {"--shards", "NETCRAFTER_SHARDS"},
    {"--fidelity", "NETCRAFTER_FIDELITY"},
    {"--trace-out", "NETCRAFTER_TRACE_OUT"},
    {"--trace-level", "NETCRAFTER_TRACE_LEVEL"},
    {"--sample-interval", "NETCRAFTER_SAMPLE_INTERVAL"},
};

/** strtol over the whole of @p text; false on garbage or overflow. */
bool
parseLong(const char *text, long &out)
{
    char *end = nullptr;
    out = std::strtol(text, &end, 10);
    // strtol saturates overflow at LONG_MAX, so range checks against a
    // smaller cap also reject absurdly long digit strings.
    return end != text && *end == '\0';
}

/** strtod over the whole of @p text, positive and finite. */
bool
parsePositiveDouble(const char *text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text, &end);
    return end != text && *end == '\0' && std::isfinite(out) && out > 0;
}

} // namespace

bool
RunFlags::consume(int argc, char **argv, int &i)
{
    for (const SharedFlag &shared : kSharedFlags) {
        if (std::strcmp(argv[i], shared.flag) != 0)
            continue;
        if (i + 1 >= argc)
            NC_FATAL(shared.flag, " requires a value");
        set(shared.var, shared.flag, argv[++i]);
        return true;
    }
    return false;
}

void
RunFlags::set(const char *var, const char *flag, std::string value)
{
    values_[var] = Value{flag, std::move(value)};
}

const char *
RunFlags::lookup(const char *var, const char **source) const
{
    if (auto it = values_.find(var); it != values_.end()) {
        *source = it->second.flag;
        return it->second.text.c_str();
    }
    *source = var;
    return std::getenv(var);
}

void
overlayEnv(RunSpec &spec, const RunFlags &flags, unsigned *jobs)
{
    const char *src = nullptr;
    auto get = [&](const char *var) { return flags.lookup(var, &src); };

    if (const char *v = get("NETCRAFTER_SCALE"))
        spec.scale *= parseScaleEnv(v, src);
    if (const char *v = get("NETCRAFTER_SHARDS"))
        spec.shards = parseShardsEnv(v, src);
    if (const char *v = jobs ? get("NETCRAFTER_JOBS") : nullptr)
        *jobs = parseJobsEnv(v, src);
    if (const char *v = get("NETCRAFTER_THREADS"))
        spec.exec.threads = parseThreadsEnv(v, src);
    if (const char *v = get("NETCRAFTER_STEAL"))
        spec.exec.steal = parseStealEnv(v, src);
    if (const char *v = get("NETCRAFTER_STEAL_MIN_BACKLOG"))
        spec.exec.stealMinBacklog = parseStealMinBacklogEnv(v, src);
    // An empty fidelity counts as unset, not as garbage.
    if (const char *v = get("NETCRAFTER_FIDELITY"); v && *v != '\0')
        spec.fidelity = flow::parseFidelityOrDie(v, src);

    if (const char *v = get("NETCRAFTER_TRACE_OUT"))
        spec.trace.outDir = v;
    if (const char *v = get("NETCRAFTER_SAMPLE_INTERVAL"))
        spec.trace.sampleInterval = parseSampleIntervalEnv(v, src);
    if (const char *v = get("NETCRAFTER_TRACE_LEVEL")) {
        spec.trace.level = obs::TraceOptions::parseLevel(v, src);
    } else if (!spec.trace.enabled() &&
               (!spec.trace.outDir.empty() ||
                spec.trace.sampleInterval > 0)) {
        // Asking for output or sampling without naming a tier means
        // the caller wants tracing: default to the packet tier.
        spec.trace.level = obs::TraceLevel::Packets;
    }

    serve::ServeConfig &serve = spec.serve;
    if (const char *v = get("NETCRAFTER_SERVE_LOAD"))
        serve.offeredLoad = parseServeLoadEnv(v, src);
    if (const char *v = get("NETCRAFTER_SERVE_ARRIVAL"))
        serve.arrival = serve::parseArrivalKind(v, src);
    if (const char *v = get("NETCRAFTER_SERVE_MIX"))
        serve.mix = serve::parseClassMix(v, src);
    if (const char *v = get("NETCRAFTER_SERVE_WARMUP"))
        serve.warmupTicks = parseServeTicksEnv(v, src);
    if (const char *v = get("NETCRAFTER_SERVE_MEASURE"))
        serve.measureTicks = parseServeTicksEnv(v, src);
    if (const char *v = get("NETCRAFTER_SERVE_SEED"))
        serve.seed = parseServeSeedEnv(v, src);
}

double
parseScaleEnv(const char *text, const char *what)
{
    double v = 0;
    if (!parsePositiveDouble(text, v)) {
        NC_FATAL(what, " must be a positive finite number, got '", text,
                 "'");
    }
    return v;
}

unsigned
parseShardsEnv(const char *text, const char *what)
{
    long v = 0;
    if (!parseLong(text, v) || v < 1 || v > (1L << 16)) {
        NC_FATAL(what, " must be a positive shard count, got '", text,
                 "'");
    }
    return static_cast<unsigned>(v);
}

unsigned
parseJobsEnv(const char *text, const char *what)
{
    long v = 0;
    if (!parseLong(text, v) || v < 0 || v > (1L << 16)) {
        NC_FATAL(what, " must be 0 (all cores) or a positive worker "
                 "count, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

unsigned
parseThreadsEnv(const char *text, const char *what)
{
    long v = 0;
    // 0 is legal: one thread per shard, the default mapping.
    if (!parseLong(text, v) || v < 0 || v > (1L << 16)) {
        NC_FATAL(what, " must be 0 (one per shard) or a positive "
                 "executor-thread count, got '", text, "'");
    }
    return static_cast<unsigned>(v);
}

bool
parseStealEnv(const char *text, const char *what)
{
    if (std::strcmp(text, "1") == 0 || std::strcmp(text, "on") == 0 ||
        std::strcmp(text, "true") == 0)
        return true;
    if (std::strcmp(text, "0") == 0 || std::strcmp(text, "off") == 0 ||
        std::strcmp(text, "false") == 0)
        return false;
    NC_FATAL(what, " must be one of 0/1/on/off/true/false, got '", text,
             "'");
}

std::uint32_t
parseStealMinBacklogEnv(const char *text, const char *what)
{
    long v = 0;
    if (!parseLong(text, v) || v < 1 || v > (1L << 30)) {
        NC_FATAL(what, " must be a positive event-count floor, got '",
                 text, "'");
    }
    return static_cast<std::uint32_t>(v);
}

Tick
parseSampleIntervalEnv(const char *text, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 0) {
        NC_FATAL(what, " must be a non-negative tick count, got '", text,
                 "'");
    }
    return static_cast<Tick>(v);
}

double
parseServeLoadEnv(const char *text, const char *what)
{
    double v = 0;
    if (!parsePositiveDouble(text, v)) {
        NC_FATAL(what, " must be a positive finite requests-per-"
                 "kilocycle rate, got '", text, "'");
    }
    return v;
}

Tick
parseServeTicksEnv(const char *text, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || v < 1) {
        NC_FATAL(what, " must be a positive tick count, got '", text,
                 "'");
    }
    return static_cast<Tick>(v);
}

std::uint64_t
parseServeSeedEnv(const char *text, const char *what)
{
    // strtoull silently wraps negatives, so reject a leading '-'
    // explicitly.
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] == '-' || end == text || *end != '\0') {
        NC_FATAL(what, " must be a non-negative integer, got '", text,
                 "'");
    }
    return static_cast<std::uint64_t>(v);
}

} // namespace netcrafter::harness

/**
 * @file
 * Core observability types: trace levels, the 32-byte binary
 * TraceRecord emitted by tracepoints, and the TraceOptions that
 * configure a traced run.
 *
 * Design constraints, in priority order:
 *  - zero overhead when disabled: the tracepoint helper (see
 *    trace_buffer.hh) compiles down to one pointer null-check, and the
 *    whole facility can be compiled out with -DNETCRAFTER_DISABLE_TRACING;
 *  - bit-identical output across shard counts: every TraceRecord field
 *    is derived from simulated state only (ticks, packet ids, byte
 *    counts), never from host time or execution order, so a total-order
 *    sort over all fields reproduces one canonical stream no matter
 *    which shard recorded what.
 */

#ifndef NETCRAFTER_OBS_TRACE_HH
#define NETCRAFTER_OBS_TRACE_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/sim/types.hh"

namespace netcrafter::obs {

/**
 * How much the tracepoints record. Levels are cumulative: each tier
 * includes everything below it.
 */
enum class TraceLevel : std::uint8_t {
    Off = 0,     ///< tracing disabled; tracepoints are a null-check
    Links = 1,   ///< wire flit transfers, PTW walks, controller decisions
    Packets = 2, ///< + RDMA packet inject/deliver and request completion
    Full = 3,    ///< + per-access L1/TLB/L2/DRAM/switch stages
};

/** What a TraceRecord describes; selects how a/b are interpreted. */
enum class TraceKind : std::uint8_t {
    PktStage = 0,     ///< a packet (or walk) reached a lifecycle stage
    FlitXfer = 1,     ///< a flit crossed a wire or switch
    Gauge = 2,        ///< a sampled level (a = value)
    CtrlDecision = 3, ///< a NetCrafterController decision
};

/** The lifecycle stage a record marks. */
enum class TraceStage : std::uint8_t {
    Coalesce = 0,
    L1Lookup,
    L1Miss,
    TlbLookup,
    TlbMiss,
    WalkStart,
    WalkEnd,
    RdmaInject,
    RdmaDeliver,
    SwitchRoute,
    WireDepart,
    WireArrive,
    L2Lookup,
    L2Miss,
    DramAccess,
    Complete,
    CtrlArm,
    CtrlEject,
    CtrlStitch,
    CtrlTrim,
    ServeArrive,
    ServeRetire,
    FlowTransit,
    FlowDeliver,
};

/** Number of TraceStage values (for tables indexed by stage). */
inline constexpr std::size_t kNumTraceStages = 24;

/** Stable lower-case name for a stage ("wireDepart", "walkStart", ...). */
const char *traceStageName(TraceStage stage);

/**
 * One binary trace event. 32 bytes, trivially copyable, and totally
 * ordered over *all* fields so that merging per-shard streams by
 * std::sort yields one canonical sequence: two records that compare
 * equal are byte-identical, so ties cannot introduce shard-count
 * dependent orderings.
 *
 * Field use by kind:
 *  - PktStage:  id = packet id / vpn / line, a,b = stage-specific
 *  - FlitXfer:  id = packet id, a = capacity<<16 | usedBytes,
 *               b = stitchedPieces<<16 | flit seq
 *  - Gauge:     id = 0, a = sampled value
 *  - CtrlDecision: id = packet id, a,b = decision-specific
 */
struct TraceRecord
{
    Tick tick = 0;
    std::uint64_t id = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint16_t lane = 0;
    std::uint8_t kind = 0;
    std::uint8_t stage = 0;
    std::uint32_t pad = 0; ///< keeps the struct a round 32 bytes

    friend auto operator<=>(const TraceRecord &,
                            const TraceRecord &) = default;
};

static_assert(sizeof(TraceRecord) == 32, "TraceRecord must stay compact");

/** Pack the FlitXfer `a` field. */
inline std::uint32_t
packFlitBytes(std::uint32_t capacity, std::uint32_t used_bytes)
{
    return (capacity << 16) | (used_bytes & 0xffffu);
}

/** Pack the FlitXfer `b` field. */
inline std::uint32_t
packFlitSeq(std::uint32_t stitched_pieces, std::uint32_t seq)
{
    return (stitched_pieces << 16) | (seq & 0xffffu);
}

/**
 * Configuration for one traced run. Default-constructed == disabled.
 * CLI entry points fill it from the NETCRAFTER_TRACE_OUT /
 * NETCRAFTER_TRACE_LEVEL / NETCRAFTER_SAMPLE_INTERVAL variables and
 * their flags (harness::overlayEnv).
 */
struct TraceOptions
{
    /** Record tier; Off disables the whole facility. */
    TraceLevel level = TraceLevel::Off;

    /**
     * Directory for trace artifacts (<run>.trace.json,
     * <run>.host.trace.json, <run>.timeseries.csv, <run>.stats.json).
     * Empty keeps everything in memory (tests, benches).
     */
    std::string outDir;

    /**
     * Interval-sampler period in sim ticks; 0 disables time-series
     * sampling.
     */
    Tick sampleInterval = 0;

    /**
     * Per-shard record cap. Records past the cap are counted as
     * dropped; byte-identity across shard counts is only guaranteed
     * when nothing is dropped (smaller shards fill later).
     */
    std::size_t bufferCap = 1u << 22;

    bool enabled() const { return level != TraceLevel::Off; }

    /**
     * Parse "off"/"links"/"packets"/"full" (NC_FATAL on junk). A
     * non-null @p what (the flag or variable the text came from)
     * prefixes the message.
     */
    static TraceLevel parseLevel(const std::string &text,
                                 const char *what = nullptr);

    /** Inverse of parseLevel. */
    static const char *levelName(TraceLevel level);
};

} // namespace netcrafter::obs

#endif // NETCRAFTER_OBS_TRACE_HH

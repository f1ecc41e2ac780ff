/**
 * @file
 * Crossbar-style network switch (Section 5.1): flits entering a port pass
 * through a 30-cycle processing pipeline at the port's line rate, then are
 * routed to the output buffer of the destination port. Full output buffers
 * pause routing, creating back-pressure that propagates upstream.
 *
 * Two extension points realize NetCrafter inside the cluster switch:
 *  - an EgressProcessor attached to a port intercepts flits routed to it
 *    (the NetCrafter controller with its Cluster Queue), and
 *  - an IngressProcessor attached to a port transforms arriving flits
 *    before routing (the un-stitching engine).
 */

#ifndef NETCRAFTER_NOC_SWITCH_HH
#define NETCRAFTER_NOC_SWITCH_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "src/noc/flit_buffer.hh"
#include "src/sim/ring_queue.hh"
#include "src/sim/self_scheduling.hh"
#include "src/sim/sim_object.hh"

namespace netcrafter::noc {

/**
 * Intercepts flits routed toward an output port. Returning false from
 * tryAccept() stalls routing for that flit (back-pressure); the processor
 * must later wake the switch when it can accept again.
 */
class EgressProcessor
{
  public:
    virtual ~EgressProcessor() = default;

    /** Offer @p flit; return false to stall. */
    virtual bool tryAccept(FlitPtr flit) = 0;
};

/**
 * Transforms flits arriving on an input port before they enter the
 * routing pipeline (e.g. un-stitching one wire flit into several).
 */
class IngressProcessor
{
  public:
    virtual ~IngressProcessor() = default;

    /** Expand/rewrite @p flit into zero or more flits appended to @p out. */
    virtual void process(FlitPtr flit, std::vector<FlitPtr> &out) = 0;
};

/** Configuration for one switch. */
struct SwitchParams
{
    /** Pipeline latency in cycles (Table 2: 30). */
    Tick pipelineLatency = 30;

    /** I/O buffer capacity in flits (Table 2: 1024). */
    std::size_t bufferEntries = 1024;
};

/**
 * A switch with N ports. Port speeds (flits/cycle) match the attached
 * link so a 128 GB/s GPU-facing port is not throttled to the 16 GB/s
 * inter-cluster rate.
 */
class Switch : public sim::SimObject
{
  public:
    Switch(sim::Engine &engine, std::string name, const SwitchParams &params);

    /**
     * Add a port with the given line rate; returns the port index.
     * The port's buffers are owned by the switch; links attach to them.
     */
    std::size_t addPort(std::uint32_t flits_per_cycle);

    /** Input buffer of @p port (links deliver into this). */
    FlitBuffer &inBuffer(std::size_t port);

    /** Output buffer of @p port (links drain from this). */
    FlitBuffer &outBuffer(std::size_t port);

    /** Route flits destined for GPU @p dst out of @p port. */
    void addRoute(GpuId dst, std::size_t port);

    /** Attach an egress processor to @p port. */
    void setEgressProcessor(std::size_t port, EgressProcessor *proc);

    /** Attach an ingress processor to @p port. */
    void setIngressProcessor(std::size_t port, IngressProcessor *proc);

    /** Wake the switch scheduler (idempotent within a cycle). */
    void notify();

    /** Output port a flit destined to @p dst routes to. */
    std::size_t routeFor(GpuId dst) const;

    /** Total flits routed through the crossbar. */
    std::uint64_t flitsRouted() const { return flitsRouted_; }

    /** Cycles in which routing stalled on a full output. */
    std::uint64_t stallCycles() const { return stallCycles_; }

  private:
    struct PipelineEntry
    {
        FlitPtr flit;
        Tick readyAt = 0;
        /** Output port, resolved once when the flit enters the
         *  pipeline (routes are fixed after construction). */
        std::size_t outPort = 0;
    };

    struct Port
    {
        std::uint32_t speed = 1;
        std::unique_ptr<FlitBuffer> in;
        std::unique_ptr<FlitBuffer> out;
        sim::RingQueue<PipelineEntry> pipeline;
        IngressProcessor *ingress = nullptr;
        EgressProcessor *egress = nullptr;

        /** Head flit is ready but its output cannot accept it. */
        bool blockedOnOutput = false;
    };

    void cycle();
    bool hasWork() const;

    SwitchParams params_;
    static constexpr std::size_t kNoRoute = ~std::size_t{0};

    std::vector<Port> ports_;

    /** Output port per destination GPU (kNoRoute when unrouted). */
    std::vector<std::size_t> routes_;

    /** Crossbar ejection rate: the fastest port's line rate. */
    std::uint32_t crossbarRate_ = 1;

    /** Per-cycle scratch, reused: output budgets and ingress output. */
    std::vector<std::uint32_t> outBudget_;
    std::vector<FlitPtr> expanded_;
    sim::SelfScheduling<Switch, &Switch::cycle> wake_;
    Tick lastCycleTick_ = kTickNever;
    Tick pendingLongWake_ = 0;

    std::uint64_t flitsRouted_ = 0;
    std::uint64_t stallCycles_ = 0;
    std::uint16_t traceLane_ = 0;
};

} // namespace netcrafter::noc

#endif // NETCRAFTER_NOC_SWITCH_HH

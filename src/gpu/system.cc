#include "src/gpu/system.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "src/obs/telemetry.hh"
#include "src/obs/trace_buffer.hh"
#include "src/sim/logging.hh"
#include "src/sim/pool.hh"
#include "src/sim/small_fn.hh"

namespace netcrafter::gpu {

unsigned
MultiGpuSystem::validateShards(const config::SystemConfig &cfg,
                               unsigned shards)
{
    // Zero means "caller did not think about it" and runs serially.
    // More shards than clusters would leave engines with no components
    // and silently clamping used to hide topology/shard mismatches in
    // sweep scripts — reject loudly instead.
    if (shards > cfg.numClusters) {
        NC_FATAL("shards=", shards, " exceeds the topology's ",
                 cfg.numClusters, " clusters; shards partition whole "
                 "clusters, so at most numClusters shards are "
                 "meaningful — lower the shard count or grow the "
                 "topology");
    }
    return std::max(shards, 1u);
}

MultiGpuSystem::MultiGpuSystem(const config::SystemConfig &cfg,
                               unsigned shards,
                               const obs::TraceOptions &trace,
                               const sim::ExecPolicy &exec,
                               flow::Fidelity fidelity)
    : cfg_(cfg), fidelity_(fidelity),
      engine_(validateShards(cfg, shards), exec),
      pageTable_(cfg.numGpus())
{
    cfg_.validate();
    if (fidelity_ != flow::Fidelity::Cycle && engine_.numShards() > 1) {
        NC_FATAL("fidelity=", flow::fidelityName(fidelity_),
                 " requires a serial system; the flow lane schedules "
                 "fused completions across clusters, which conservative "
                 "shard barriers cannot order — run with shards=1 or "
                 "fidelity=cycle");
    }
    noc::resetPacketIds();
    if (trace.enabled()) {
        // The sink must exist before any component constructs: lanes
        // are interned (and engine trace pointers installed) so the
        // builders below see tracing already live.
        traceSink_ = std::make_unique<obs::TraceSink>(
            trace, engine_.numShards());
        for (unsigned s = 0; s < engine_.numShards(); ++s) {
            engine_.shard(s).setTrace(traceSink_.get(),
                                      &traceSink_->buffer(s));
        }
        engine_.setHostTimelineEnabled(true);
    }
    if (fidelity_ == flow::Fidelity::Cycle) {
        network_ = std::make_unique<noc::Network>(engine_, cfg_);
    } else {
        network_ = std::make_unique<noc::Network>(engine_.shard(0),
                                                  cfg_, fidelity_);
    }
    buildChips();

    // Live telemetry: arm the host-time self-profiler (phase timers
    // feed RunResult columns, heartbeats, and the host-trace counter
    // tracks) and expose the progress board + flight recorder to the
    // background sampler. Registration is a no-op when telemetry is
    // not running; everything here is host-side observation only.
    engine_.setProfilingEnabled(obs::profilingArmed(trace.enabled()));
    obs::Telemetry::instance().registerRun(
        &engine_.progressBoard(),
        [this](std::ostream &os) { engine_.dumpFlightRecord(os); });
}

MultiGpuSystem::~MultiGpuSystem()
{
    // Unregister before any member is torn down: the sampler must not
    // read a board (or dump a flight record) mid-destruction.
    obs::Telemetry::instance().unregisterRun(&engine_.progressBoard());

    // Opt-in leak census for CI and tests: abandoning a run must not
    // leave events or cross-shard exports behind.
    static const bool census =
        std::getenv("NETCRAFTER_TEARDOWN_CENSUS") != nullptr;
    if (census)
        auditTeardown();
}

void
MultiGpuSystem::buildChips()
{
    const std::uint32_t num_gpus = cfg_.numGpus();
    chips_.resize(num_gpus);
    gpuLocal_.resize(num_gpus);
    for (GpuId g = 0; g < num_gpus; ++g) {
        GpuChip &chip = chips_[g];
        sim::Engine &engine = engineOf(g);
        const std::string prefix = "gpu" + std::to_string(g);

        // Per-GPU stream so the draw sequence each GPU sees does not
        // depend on how requests from other GPUs interleave with its
        // own — the precondition for shard-count-independent results.
        gpuLocal_[g].priorityRng = Pcg32(
            cfg_.seed ^ 0x9e3779b97f4a7c15ull,
            0xda3e39cb94b95bdbull + 2 * static_cast<std::uint64_t>(g));
        gpuLocal_[g].traceLane =
            obs::internLane(engine, prefix + ".mem");

        chip.dram = std::make_unique<mem::Dram>(
            engine, prefix + ".dram", cfg_.dramLatency,
            cfg_.dramBytesPerCycle);

        mem::L2Params l2p;
        l2p.sizeBytes = cfg_.l2BytesPerGpu;
        l2p.assoc = cfg_.l2Assoc;
        l2p.banks = cfg_.l2Banks;
        l2p.lookupLatency = cfg_.l2Latency;
        l2p.mshrEntries = cfg_.l2MshrEntries;
        chip.l2 = std::make_unique<mem::L2Cache>(engine, prefix + ".l2",
                                                 l2p, *chip.dram);

        vm::GmmuParams gmmu_params;
        gmmu_params.pwcEntries = cfg_.pwcEntries;
        gmmu_params.pwcLatency = cfg_.pwcLatency;
        gmmu_params.walkers = cfg_.pageWalkers;
        chip.gmmu = std::make_unique<vm::Gmmu>(
            engine, prefix + ".gmmu", gmmu_params, pageTable_,
            [this, g](const vm::WalkStep &step, sim::SmallFn done) {
                fetchPte(g, step, std::move(done));
            });

        vm::TlbParams l2tlb_params;
        l2tlb_params.entries = cfg_.l2TlbEntries;
        l2tlb_params.assoc = cfg_.l2TlbAssoc;
        l2tlb_params.lookupLatency = cfg_.l2TlbLatency;
        l2tlb_params.mshrEntries = cfg_.l2TlbMshrEntries;
        chip.l2Tlb = std::make_unique<vm::Tlb>(
            engine, prefix + ".l2tlb", l2tlb_params,
            [this, g](Addr vpn, vm::Tlb::Callback done) {
                chips_[g].gmmu->walk(vpn, std::move(done));
            });

        CuParams cu_params;
        cu_params.l1.sizeBytes = cfg_.l1Bytes;
        cu_params.l1.assoc = cfg_.l1Assoc;
        cu_params.l1.lookupLatency = cfg_.l1Latency;
        cu_params.l1.mshrEntries = cfg_.l1MshrEntries;
        cu_params.l1.sectorBytes =
            cfg_.l1FillMode == config::L1FillMode::FullLine
                ? kCacheLineBytes
                : cfg_.netcrafter.trimGranularity;
        cu_params.l1Tlb.entries = cfg_.l1TlbEntries;
        cu_params.l1Tlb.assoc = cfg_.l1TlbEntries; // fully associative
        cu_params.l1Tlb.lookupLatency = cfg_.l1TlbLatency;
        cu_params.l1Tlb.mshrEntries = cfg_.l1TlbMshrEntries;
        cu_params.issueWidth = cfg_.cuIssueWidth;
        cu_params.maxResidentWaves = cfg_.maxWavesPerCu;
        // At flow/hybrid fidelity the per-cycle L1 retry polling would
        // dominate the fused fast path; park the issue port instead.
        cu_params.wakeOnL1Unblock =
            fidelity_ != flow::Fidelity::Cycle;

        chip.cus.reserve(cfg_.cusPerGpu);
        for (std::uint32_t c = 0; c < cfg_.cusPerGpu; ++c) {
            chip.cus.push_back(std::make_unique<ComputeUnit>(
                engine, prefix + ".cu" + std::to_string(c), cu_params,
                [this, g](mem::FillRequest req) { l1Fill(g, req); },
                [this, g](Addr vpn, vm::Tlb::Callback done) {
                    chips_[g].l2Tlb->access(vpn, std::move(done));
                },
                [this, g](const WaveDesc &desc) {
                    if (waveRetireHook_)
                        waveRetireHook_(g, desc);
                    refillCus(g);
                }));
        }

        network_->rdma(g).setRequestHandler(
            [this, g](noc::PacketPtr req) {
                handleRemoteRequest(g, std::move(req));
            });
        network_->rdma(g).setResponseHandler(
            [this](noc::PacketPtr rsp) { handleResponse(std::move(rsp)); });
    }
}

void
MultiGpuSystem::auditTeardown() const
{
    engine_.auditTeardown();
    if (lastRunStatus_ != sim::RunStatus::Drained)
        return;
    // After a drain nothing may still wait on anything: a leftover entry
    // is a request whose completion got lost.
    const Tick tick = engine_.now();
    const auto expectEmpty = [tick](std::size_t pending,
                                    const std::string &component) {
        if (pending != 0) {
            NC_PANIC("teardown census at tick ", tick, ": ", component,
                     " still holds ", pending,
                     " entries after a drained run");
        }
    };
    for (GpuId g = 0; g < cfg_.numGpus(); ++g) {
        const GpuChip &chip = chips_[g];
        for (const auto &cu : chip.cus) {
            expectEmpty(cu->l1().inFlight(), cu->l1().name());
            expectEmpty(cu->l1Tlb().inFlight(), cu->l1Tlb().name());
        }
        expectEmpty(chip.l2->inFlight(), chip.l2->name());
        expectEmpty(chip.l2Tlb->inFlight(), chip.l2Tlb->name());
        expectEmpty(chip.gmmu->inFlight(), chip.gmmu->name());
        const GpuLocal &local = gpuLocal_[g];
        expectEmpty(local.fills.size() + local.pteFetches.size(),
                    "gpu" + std::to_string(g) + " outstanding requests");
        const noc::RdmaEngine &rdma = network_->rdma(g);
        expectEmpty(rdma.reassemblyInFlight(), rdma.name());
    }
    for (ClusterId f = 0; f < cfg_.numClusters; ++f) {
        for (ClusterId t = 0; t < cfg_.numClusters; ++t) {
            if (f == t)
                continue;
            const auto *ctrl = network_->controller(f, t);
            if (ctrl != nullptr)
                expectEmpty(ctrl->heldPackets(), ctrl->name());
            // Every credit must be home: a missing one is a flit still
            // on the wire or in the sink, or a credit return never
            // delivered.
            const noc::WireChannel &ch = network_->interClusterChannel(f, t);
            if (ch.credits() != ch.sinkCapacity()) {
                NC_PANIC("teardown census at tick ", tick, ": ", ch.name(),
                         " holds ", ch.credits(), " of ",
                         ch.sinkCapacity(),
                         " credits after a drained run");
            }
        }
    }
}

void
MultiGpuSystem::place(Addr vaddr, GpuId owner)
{
    pageTable_.place(vaddr, owner);
}

void
MultiGpuSystem::markPriority(noc::Packet &pkt, GpuId requester)
{
    // The separate PTW partition (Figure 13) is part of NetCrafter; a
    // bare characterization controller (forceController with every
    // mechanism off, the Figure 8 reference) queues PTW flits with data
    // like the baseline switch would.
    const bool bare_controller =
        cfg_.netcrafter.forceController &&
        !cfg_.netcrafter.stitching && !cfg_.netcrafter.trimming &&
        cfg_.netcrafter.sequencing == config::SequencingMode::Off;
    switch (cfg_.netcrafter.sequencing) {
      case config::SequencingMode::Off:
      case config::SequencingMode::PrioritizePtw:
        // PTW traffic is the latency-critical class (Observation 3);
        // with sequencing off the flag still routes PTW flits to their
        // separate CQ partition (Figure 13) for Selective Flit Pooling.
        pkt.latencyCritical = pkt.isPtw() && !bare_controller;
        break;
      case config::SequencingMode::PrioritizeData:
        pkt.latencyCritical =
            !pkt.isPtw() &&
            gpuLocal_[requester].priorityRng.chance(
                cfg_.netcrafter.priorityDataFraction);
        break;
    }
}

mem::SectorMask
MultiGpuSystem::fullL1Mask() const
{
    const std::uint32_t sector_bytes =
        cfg_.l1FillMode == config::L1FillMode::FullLine
            ? kCacheLineBytes
            : cfg_.netcrafter.trimGranularity;
    return mem::fullMask(kCacheLineBytes / sector_bytes);
}

mem::SectorMask
MultiGpuSystem::maskForRange(std::uint32_t offset,
                             std::uint32_t bytes) const
{
    const std::uint32_t sector_bytes =
        cfg_.l1FillMode == config::L1FillMode::FullLine
            ? kCacheLineBytes
            : cfg_.netcrafter.trimGranularity;
    const std::uint32_t first = offset / sector_bytes;
    const std::uint32_t last = (offset + bytes - 1) / sector_bytes;
    mem::SectorMask mask = 0;
    for (std::uint32_t s = first; s <= last; ++s)
        mask |= 1ull << s;
    return mask;
}

void
MultiGpuSystem::l1Fill(GpuId g, const mem::FillRequest &req)
{
    const Addr line = req.line;
    const GpuId owner = pageTable_.dataOwner(line);
    GpuLocal &local = gpuLocal_[g];
    obs::tracepoint(engineOf(g), obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage, obs::TraceStage::L1Miss,
                    local.traceLane, line, req.bytes,
                    req.isWrite ? 1u : 0u);

    if (req.isWrite) {
        if (owner == g) {
            chips_[g].l2->write(line, [req] { req.complete(0); });
            return;
        }
        auto pkt = noc::makePacket(noc::PacketType::WriteReq, g, owner,
                                   line);
        markPriority(*pkt, g);
        *local.fills.tryEmplace(pkt->id).first = FillRecord{req, 0, false};
        if (tryFusedRoundTrip(g, pkt))
            return;
        network_->sendPacket(std::move(pkt));
        return;
    }

    if (owner == g) {
        ++local.localReads;
        const mem::SectorMask mask =
            cfg_.l1FillMode == config::L1FillMode::SectorAlways
                ? maskForRange(req.offset, req.bytes)
                : fullL1Mask();
        chips_[g].l2->read(line, [req, mask] { req.complete(mask); });
        return;
    }

    ++local.remoteReads;
    auto pkt = noc::makePacket(noc::PacketType::ReadReq, g, owner, line);
    pkt->bytesNeeded = static_cast<std::uint8_t>(
        std::min<std::uint32_t>(req.bytes, kCacheLineBytes));
    pkt->neededOffset = static_cast<std::uint8_t>(req.offset);
    pkt->trimEligible =
        cfg_.netcrafter.trimming &&
        core::TrimEngine::fitsOneSector(req.offset, req.bytes,
                                        cfg_.netcrafter.trimGranularity);
    markPriority(*pkt, g);

    const bool inter_cluster =
        cfg_.clusterOf(g) != cfg_.clusterOf(owner);
    if (inter_cluster)
        local.remoteReadBytes.sample(req.bytes);

    *local.fills.tryEmplace(pkt->id).first =
        FillRecord{req, engineOf(g).now(), inter_cluster};
    if (tryFusedRoundTrip(g, pkt))
        return;
    network_->sendPacket(std::move(pkt));
}

void
MultiGpuSystem::fetchPte(GpuId g, const vm::WalkStep &step,
                         sim::SmallFn done)
{
    if (step.owner == g) {
        chips_[g].l2->read(lineAddr(step.pteAddr), std::move(done));
        return;
    }
    auto pkt = noc::makePacket(noc::PacketType::PageTableReq, g,
                               step.owner, step.pteAddr);
    markPriority(*pkt, g);
    *gpuLocal_[g].pteFetches.tryEmplace(pkt->id).first = std::move(done);
    if (tryFusedRoundTrip(g, pkt))
        return;
    network_->sendPacket(std::move(pkt));
}

noc::PacketPtr
MultiGpuSystem::buildResponse(GpuId owner, const noc::Packet &req)
{
    switch (req.type) {
      case noc::PacketType::ReadReq: {
        auto rsp = noc::makePacket(noc::PacketType::ReadRsp, owner,
                                   req.src, req.addr);
        rsp->reqId = req.id;
        rsp->bytesNeeded = req.bytesNeeded;
        rsp->neededOffset = req.neededOffset;
        rsp->trimEligible = req.trimEligible;
        rsp->latencyCritical = req.latencyCritical;
        if (cfg_.l1FillMode == config::L1FillMode::SectorAlways &&
            req.bytesNeeded > 0) {
            // Sector-cache baseline: the response carries only the
            // requested sectors no matter which network it crosses.
            const mem::SectorMask mask =
                maskForRange(req.neededOffset, req.bytesNeeded);
            rsp->payloadBytes =
                static_cast<std::uint32_t>(std::popcount(mask)) *
                cfg_.netcrafter.trimGranularity;
            rsp->trimmed = true;
            rsp->trimSector = static_cast<std::uint8_t>(
                req.neededOffset / cfg_.netcrafter.trimGranularity);
        }
        return rsp;
      }
      case noc::PacketType::WriteReq: {
        auto rsp = noc::makePacket(noc::PacketType::WriteRsp, owner,
                                   req.src, req.addr);
        rsp->reqId = req.id;
        rsp->latencyCritical = req.latencyCritical;
        return rsp;
      }
      case noc::PacketType::PageTableReq: {
        auto rsp = noc::makePacket(noc::PacketType::PageTableRsp,
                                   owner, req.src, req.addr);
        rsp->reqId = req.id;
        rsp->latencyCritical = req.latencyCritical;
        return rsp;
      }
      default:
        NC_PANIC("response packet delivered to request handler: ",
                 req.toString());
    }
}

bool
MultiGpuSystem::tryFusedRoundTrip(GpuId g, noc::PacketPtr &pkt)
{
    flow::FidelityController *ctl = network_->flowController();
    if (!ctl)
        return false;
    sim::Engine &eng = engineOf(g);
    const Tick now = eng.now();
    // The classification covers the whole round trip: there is no
    // owner-side event left to reclassify the response, so a fused
    // request's response rides the flow lane unconditionally (its
    // transit still trains the reverse lane's rate estimate).
    if (!ctl->classify(*pkt, now))
        return false;
    pkt->injectedAt = now;
    obs::tracepoint(eng, obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage,
                    obs::TraceStage::FlowTransit,
                    gpuLocal_[g].traceLane, pkt->id, pkt->totalBytes());
    const Tick req_arrive = ctl->transit(*pkt, now);
    ctl->noteDelivered(*pkt);

    // The remaining hops run as a short event chain so every virtual
    // server is touched at its own simulated time, and the owner L2 is
    // the real event-driven model (MSHRs, banks, DRAM) — only the
    // network hops are analytic. Folding the whole round trip into one
    // event at injection time reserved server slots with future-dated
    // arrivals; present-time packets then queued behind reservations
    // that were not in front of them, and the spurious backlog
    // compounded into a runaway (~12x inflation of simulated time on
    // GUPS).
    eng.scheduleAbs(req_arrive, [this, ctl, pkt]() mutable {
        const GpuId owner = pkt->dst;
        const Addr line = pkt->type == noc::PacketType::PageTableReq
                              ? lineAddr(pkt->addr)
                              : pkt->addr;
        const bool is_write = pkt->type == noc::PacketType::WriteReq;
        auto respond = [this, ctl, pkt]() mutable {
            const GpuId owner = pkt->dst;
            auto rsp = buildResponse(owner, *pkt);
            sim::Engine &rsp_eng = engineOf(rsp->dst);
            rsp->injectedAt = rsp_eng.now();
            const Tick rsp_arrive =
                ctl->transit(*rsp, rsp_eng.now());
            rsp_eng.scheduleAbs(rsp_arrive, [this, ctl,
                                             rsp]() mutable {
                obs::tracepoint(engineOf(rsp->dst),
                                obs::TraceLevel::Packets,
                                obs::TraceKind::PktStage,
                                obs::TraceStage::FlowDeliver,
                                gpuLocal_[rsp->dst].traceLane,
                                rsp->reqId, rsp->totalBytes());
                ctl->noteDelivered(*rsp);
                handleResponse(std::move(rsp));
            });
        };
        if (is_write)
            chips_[owner].l2->write(line, std::move(respond));
        else
            chips_[owner].l2->read(line, std::move(respond));
    });
    return true;
}

bool
MultiGpuSystem::trySendResponseOnFlowLane(noc::PacketPtr &rsp)
{
    flow::FidelityController *ctl = network_->flowController();
    if (!ctl)
        return false;
    sim::Engine &eng = engineOf(rsp->dst);
    const Tick now = eng.now();
    if (!ctl->classify(*rsp, now))
        return false;
    rsp->injectedAt = now;
    obs::tracepoint(eng, obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage,
                    obs::TraceStage::FlowTransit,
                    gpuLocal_[rsp->dst].traceLane, rsp->id,
                    rsp->totalBytes());
    const Tick arrive = ctl->transit(*rsp, now);
    eng.scheduleAbs(arrive, [this, ctl, rsp]() mutable {
        obs::tracepoint(engineOf(rsp->dst), obs::TraceLevel::Packets,
                        obs::TraceKind::PktStage,
                        obs::TraceStage::FlowDeliver,
                        gpuLocal_[rsp->dst].traceLane, rsp->reqId,
                        rsp->totalBytes());
        ctl->noteDelivered(*rsp);
        handleResponse(std::move(rsp));
    });
    return true;
}

void
MultiGpuSystem::handleRemoteRequest(GpuId owner, noc::PacketPtr req)
{
    const bool is_write = req->type == noc::PacketType::WriteReq;
    const Addr line = req->type == noc::PacketType::PageTableReq
                          ? lineAddr(req->addr)
                          : req->addr;
    // An escalated (flit-path) request's response classifies on its
    // own: its reverse lane may well be steady even while the forward
    // lane is in a contention window.
    auto respond = [this, owner, req] {
        auto rsp = buildResponse(owner, *req);
        if (trySendResponseOnFlowLane(rsp))
            return;
        network_->sendPacket(std::move(rsp));
    };
    if (is_write) {
        chips_[owner].l2->write(line, std::move(respond));
    } else {
        if (req->type != noc::PacketType::ReadReq &&
            req->type != noc::PacketType::PageTableReq) {
            NC_PANIC("response packet delivered to request handler: ",
                     req->toString());
        }
        chips_[owner].l2->read(line, std::move(respond));
    }
}

void
MultiGpuSystem::handleResponse(noc::PacketPtr rsp)
{
    // Responses are delivered by the requester's RDMA engine, so this
    // runs on the requester's shard and only touches its GpuLocal.
    GpuLocal &local = gpuLocal_[rsp->dst];
    sim::Engine &eng = engineOf(rsp->dst);
    obs::tracepoint(eng, obs::TraceLevel::Packets,
                    obs::TraceKind::PktStage, obs::TraceStage::Complete,
                    local.traceLane, rsp->reqId,
                    static_cast<std::uint32_t>(eng.now() -
                                               rsp->injectedAt));
    if (rsp->type == noc::PacketType::PageTableRsp) {
        sim::SmallFn *pending = local.pteFetches.find(rsp->reqId);
        NC_ASSERT(pending != nullptr,
                  "response for unknown request: ", rsp->toString());
        sim::SmallFn done = std::move(*pending);
        local.pteFetches.erase(rsp->reqId);
        done();
        return;
    }
    const FillRecord *pending = local.fills.find(rsp->reqId);
    NC_ASSERT(pending != nullptr,
              "response for unknown request: ", rsp->toString());
    const FillRecord fill = *pending;
    local.fills.erase(rsp->reqId);
    if (fill.req.isWrite) {
        fill.req.complete(0);
        return;
    }
    if (fill.interCluster)
        local.interReadLatency.sample(
            static_cast<double>(eng.now() - fill.issuedAt));
    // A trimmed (NetCrafter) or sector (SectorAlways) response carries
    // only the requested sectors.
    fill.req.complete(rsp->payloadBytes < kCacheLineBytes
                          ? maskForRange(rsp->neededOffset,
                                         rsp->bytesNeeded)
                          : fullL1Mask());
}

void
MultiGpuSystem::dispatchKernel(const workloads::Kernel &kernel,
                               std::uint64_t kernel_seed)
{
    const workloads::KernelInfo info = kernel.info();
    for (std::uint32_t cta = 0; cta < info.numCtas; ++cta) {
        const GpuId home = kernel.ctaHome(cta, cfg_.numGpus());
        NC_ASSERT(home < cfg_.numGpus(), "CTA scheduled to bad GPU");
        for (std::uint32_t w = 0; w < info.wavesPerCta; ++w) {
            WaveDesc desc;
            desc.kernel = &kernel;
            desc.cta = cta;
            desc.wave = w;
            desc.seed = kernel_seed;
            chips_[home].pendingWaves.push_back(desc);
        }
    }
    for (GpuId g = 0; g < cfg_.numGpus(); ++g)
        refillCus(g);
}

void
MultiGpuSystem::dispatchServeWave(GpuId g, const WaveDesc &desc)
{
    NC_ASSERT(g < cfg_.numGpus(), "serve wave for bad GPU ", g);
    NC_ASSERT(desc.serveTag != 0, "serve wave without a serve tag");
    chips_[g].pendingWaves.push_back(desc);
    refillCus(g);
}

void
MultiGpuSystem::refillCus(GpuId g)
{
    GpuChip &chip = chips_[g];
    if (chip.pendingWaves.empty())
        return;
    for (auto &cu : chip.cus) {
        while (cu->hasFreeSlot() && !chip.pendingWaves.empty()) {
            cu->startWavefront(chip.pendingWaves.front());
            chip.pendingWaves.pop_front();
        }
        if (chip.pendingWaves.empty())
            break;
    }
}

void
MultiGpuSystem::run(workloads::Workload &workload, double scale,
                    Tick max_cycles)
{
    const sim::RunStatus status = runFor(workload, scale, max_cycles);
    if (status != sim::RunStatus::Drained) {
        NC_FATAL(workload.name(), ": kernel exceeded the cycle limit (",
                 max_cycles, ") - livelock or undersized limit");
    }
}

sim::RunStatus
MultiGpuSystem::runFor(workloads::Workload &workload, double scale,
                       Tick max_cycles)
{
    if (!(scale > 0 && std::isfinite(scale))) {
        NC_FATAL(workload.name(), ": scale must be a positive finite "
                 "number, got ", scale);
    }
    workloads::BuildContext ctx;
    ctx.numGpus = cfg_.numGpus();
    ctx.scale = scale;
    ctx.seed = cfg_.seed;
    ctx.placement = this;
    workload.build(ctx);

    std::uint64_t kernel_idx = 0;
    for (const auto &kernel : workload.kernels()) {
        const std::uint64_t kernel_seed =
            cfg_.seed + 0x1000003ull * ++kernel_idx;
        dispatchKernel(*kernel, kernel_seed);
        // The event queues drain exactly when every wavefront retired
        // and all induced traffic (acks, write-backs) finished: the
        // inter-kernel barrier.
        const sim::RunStatus status = engine_.run(max_cycles);
        lastRunStatus_ = status;
        if (status != sim::RunStatus::Drained) {
            // Abandoned mid-kernel: events (and possibly cross-shard
            // exports) are still in flight. The caller decides whether
            // that is fatal; auditTeardown() makes it visible.
            return status;
        }
        // Shards stop at their own last event; the next kernel (and
        // every cycle-denominated statistic) must see the clock the
        // serial engine would be at.
        engine_.alignClocks();
    }
    return sim::RunStatus::Drained;
}

stats::Average
MultiGpuSystem::interClusterReadLatency() const
{
    stats::Average merged;
    for (const GpuLocal &local : gpuLocal_)
        merged.merge(local.interReadLatency);
    return merged;
}

stats::Distribution
MultiGpuSystem::remoteReadBytesNeeded() const
{
    stats::Distribution merged{std::vector<double>{16, 32, 48, 63}};
    for (const GpuLocal &local : gpuLocal_)
        merged.merge(local.remoteReadBytes);
    return merged;
}

std::uint64_t
MultiGpuSystem::remoteReads() const
{
    std::uint64_t sum = 0;
    for (const GpuLocal &local : gpuLocal_)
        sum += local.remoteReads;
    return sum;
}

std::uint64_t
MultiGpuSystem::localReads() const
{
    std::uint64_t sum = 0;
    for (const GpuLocal &local : gpuLocal_)
        sum += local.localReads;
    return sum;
}

std::size_t
MultiGpuSystem::outstandingRequests() const
{
    std::size_t sum = 0;
    for (const GpuLocal &local : gpuLocal_)
        sum += local.fills.size() + local.pteFetches.size();
    return sum;
}

stats::Registry
MultiGpuSystem::collectStats() const
{
    stats::Registry reg;
    reg.counter("system.cycles").inc(engine_.now());
    reg.counter("system.events").inc(engine_.eventsExecuted());
    std::uint64_t near = 0, far = 0, cb_alloc = 0, cb_high = 0,
                  cb_arena = 0;
    for (unsigned s = 0; s < engine_.numShards(); ++s) {
        const sim::Engine &e = engine_.shard(s);
        near += e.queue().nearScheduled();
        far += e.queue().farScheduled();
        cb_alloc += e.callbackPoolAllocated();
        cb_high += e.callbackPoolHighWater();
        cb_arena += e.callbackArenaBytes();
    }
    reg.counter("sim.nearEvents").inc(near);
    reg.counter("sim.farEvents").inc(far);
    reg.counter("sim.callbackPoolAllocated").inc(cb_alloc);
    reg.counter("sim.callbackPoolHighWater").inc(cb_high);
    reg.counter("sim.callbackArenaBytes").inc(cb_arena);
    // Pools are thread-local: these gauges cover the calling thread
    // (shard 0) only. Diagnostics, not part of the measurement.
    reg.counter("sim.packetPoolHighWater")
        .inc(sim::ObjectPool<noc::Packet>::local().highWater());
    reg.counter("sim.flitPoolHighWater")
        .inc(sim::ObjectPool<noc::Flit>::local().highWater());
    reg.counter("sim.poolArenaBytes")
        .inc(sim::ObjectPool<noc::Packet>::local().arenaBytes() +
             sim::ObjectPool<noc::Flit>::local().arenaBytes());
    reg.counter("sim.smallFnHeapAllocs")
        .inc(sim::SmallFn::heapAllocations());
    reg.counter("system.instructions").inc(totalInstructions());
    reg.counter("system.remoteReads").inc(remoteReads());
    reg.counter("system.localReads").inc(localReads());
    reg.counter("network.interClusterFlits")
        .inc(network_->interClusterFlits());
    reg.counter("network.interClusterWireBytes")
        .inc(network_->interClusterWireBytes());

    reg.counter("sharded.shards").inc(engine_.numShards());
    reg.counter("sharded.quantaExecuted").inc(engine_.quantaExecuted());
    reg.counter("sharded.barrierStallTicks")
        .inc(engine_.totalBarrierStallTicks());
    reg.counter("sharded.crossShardFlits")
        .inc(network_->crossShardFlits());
    reg.counter("sharded.maxIngressDepth")
        .inc(network_->maxIngressDepth());
    reg.counter("sharded.barrierRoundsSkipped")
        .inc(engine_.barrierRoundsSkipped());
    reg.counter("sharded.idleParks").inc(engine_.idleParks());
    reg.counter("sharded.workThreads").inc(engine_.workThreads());
    reg.counter("sharded.stealAttempts").inc(engine_.stealAttempts());
    reg.counter("sharded.stealsWon").inc(engine_.stealsWon());
    reg.counter("sharded.stealsAborted").inc(engine_.stealsAborted());
    reg.counter("sharded.coveredStallTicks")
        .inc(engine_.coveredStallTicks());
    reg.counter("sharded.residualStallTicks")
        .inc(engine_.residualStallTicks());
    reg.average("sharded.loadSpreadAvg").merge(engine_.loadSpreadAvg());
    reg.counter("network.interClusterFlitsDelivered")
        .inc(network_->interClusterFlitsDelivered());
    reg.counter("network.interClusterBytesDelivered")
        .inc(network_->interClusterBytesDelivered());
    reg.distribution("sharded.adaptiveWindowTicks",
                     engine_.windowTicksDist().bounds())
        .merge(engine_.windowTicksDist());
    reg.average("sharded.adaptiveWindowTicksAvg")
        .merge(engine_.windowTicksAvg());
    for (unsigned s = 0; s < engine_.numShards(); ++s) {
        reg.counter("sharded.shard" + std::to_string(s) + ".stallTicks")
            .inc(engine_.barrierStallTicks(s));
    }

    for (GpuId g = 0; g < cfg_.numGpus(); ++g) {
        const GpuChip &chip = chips_[g];
        const std::string p = "gpu" + std::to_string(g) + ".";
        std::uint64_t l1_acc = 0, l1_hit = 0, l1_miss = 0, instrs = 0;
        for (const auto &cu : chip.cus) {
            l1_acc += cu->l1().readAccesses();
            l1_hit += cu->l1().readHits();
            l1_miss += cu->l1().readMisses();
            instrs += cu->instructions();
        }
        reg.counter(p + "instructions").inc(instrs);
        reg.counter(p + "l1.readAccesses").inc(l1_acc);
        reg.counter(p + "l1.readHits").inc(l1_hit);
        reg.counter(p + "l1.readMisses").inc(l1_miss);
        reg.counter(p + "l2.accesses").inc(chip.l2->accesses());
        reg.counter(p + "l2.hits").inc(chip.l2->hits());
        reg.counter(p + "l2.misses").inc(chip.l2->misses());
        reg.counter(p + "l2.writebacks").inc(chip.l2->writebacks());
        reg.counter(p + "l2tlb.hits").inc(chip.l2Tlb->hits());
        reg.counter(p + "l2tlb.misses").inc(chip.l2Tlb->misses());
        reg.counter(p + "gmmu.walks").inc(chip.gmmu->walksStarted());
        reg.counter(p + "gmmu.pteFetches").inc(chip.gmmu->pteFetches());
        reg.counter(p + "dram.accesses").inc(chip.dram->accesses());
        reg.counter(p + "dram.bytes").inc(chip.dram->bytesAccessed());
    }

    for (ClusterId f = 0; f < cfg_.numClusters; ++f) {
        for (ClusterId t = 0; t < cfg_.numClusters; ++t) {
            if (f == t)
                continue;
            const auto *ctrl = network_->controller(f, t);
            if (!ctrl)
                continue;
            const std::string p = "netcrafter." + std::to_string(f) +
                                  "to" + std::to_string(t) + ".";
            reg.counter(p + "flitsEjected")
                .inc(ctrl->stats().flitsEjected);
            reg.counter(p + "poolingArms")
                .inc(ctrl->stats().poolingArms);
            reg.counter(p + "stitched")
                .inc(ctrl->stitchStats().candidatesAbsorbed);
            reg.counter(p + "trimmedPackets")
                .inc(ctrl->trimStats().packetsTrimmed);
            reg.counter(p + "bytesTrimmed")
                .inc(ctrl->trimStats().bytesTrimmed);
        }
    }
    if (const auto *ctl = network_->flowController()) {
        const flow::FlowLaneStats &fs = ctl->stats();
        reg.counter("flow.flowPackets").inc(fs.flowPackets);
        reg.counter("flow.cyclePackets").inc(fs.cyclePackets);
        reg.counter("flow.flowPacketsDelivered")
            .inc(fs.flowPacketsDelivered);
        reg.counter("flow.flowBytesInjected").inc(fs.flowBytesInjected);
        reg.counter("flow.flowBytesDelivered")
            .inc(fs.flowBytesDelivered);
        reg.counter("flow.epochsClosed").inc(fs.epochsClosed);
        reg.counter("flow.laneActivations").inc(fs.laneActivations);
        reg.counter("flow.laneEscalations").inc(fs.laneEscalations);
        reg.counter("flow.stitchedPieces").inc(fs.stitchedPieces);
        reg.counter("flow.md1WaitTicks").inc(fs.md1WaitTicks);
        reg.counter("flow.fifoWaitTicks").inc(fs.fifoWaitTicks);
        reg.counter("flow.recomputes").inc(fs.recomputes);
        reg.counter("flow.trimmedPackets")
            .inc(ctl->trimStats().packetsTrimmed);
        reg.counter("flow.bytesTrimmed")
            .inc(ctl->trimStats().bytesTrimmed);
    }
    reg.average("system.interReadLatency") = interClusterReadLatency();
    reg.distribution("system.remoteReadBytesNeeded") =
        remoteReadBytesNeeded();
    return reg;
}

void
MultiGpuSystem::dumpStats(std::ostream &os) const
{
    collectStats().dump(os);
}

std::uint64_t
MultiGpuSystem::totalInstructions() const
{
    std::uint64_t sum = 0;
    for (const auto &chip : chips_)
        for (const auto &cu : chip.cus)
            sum += cu->instructions();
    return sum;
}

std::uint64_t
MultiGpuSystem::l1ReadAccesses() const
{
    std::uint64_t sum = 0;
    for (const auto &chip : chips_)
        for (const auto &cu : chip.cus)
            sum += cu->l1().readAccesses();
    return sum;
}

std::uint64_t
MultiGpuSystem::l1ReadMisses() const
{
    std::uint64_t sum = 0;
    for (const auto &chip : chips_)
        for (const auto &cu : chip.cus)
            sum += cu->l1().readMisses();
    return sum;
}

double
MultiGpuSystem::l1Mpki() const
{
    // MPKI per kilo *thread* instruction, the conventional granularity.
    const std::uint64_t instrs = threadInstructions();
    return instrs ? 1000.0 * static_cast<double>(l1ReadMisses()) /
                        static_cast<double>(instrs)
                  : 0.0;
}

std::uint64_t
MultiGpuSystem::pageWalks() const
{
    std::uint64_t sum = 0;
    for (const auto &chip : chips_)
        sum += chip.gmmu->walksStarted();
    return sum;
}

double
MultiGpuSystem::meanWalkLength() const
{
    double sum = 0;
    std::uint32_t n = 0;
    for (const auto &chip : chips_) {
        if (chip.gmmu->walksStarted() > 0) {
            sum += chip.gmmu->meanWalkLength();
            ++n;
        }
    }
    return n ? sum / n : 0.0;
}

} // namespace netcrafter::gpu

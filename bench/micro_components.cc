/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot components:
 * event queue, RNG, packet segmentation, stitching engine, cluster
 * queue, tag arrays, and the coalescer. These guard the simulator's own
 * performance (host events/second), not modelled time.
 */

#include <benchmark/benchmark.h>

#include "src/core/cluster_queue.hh"
#include "src/core/stitch_engine.hh"
#include "src/gpu/coalescer.hh"
#include "src/mem/tag_array.hh"
#include "src/noc/flit.hh"
#include "src/sim/event.hh"
#include "src/sim/event_queue.hh"
#include "src/sim/random.hh"

namespace {

using namespace netcrafter;

class NopEvent : public sim::Event
{
  public:
    void process() override {}
};

void
BM_EventQueuePushPop(benchmark::State &state)
{
    sim::EventQueue q;
    Pcg32 rng(1);
    NopEvent events[64];
    Tick drain_point = 0;
    for (auto _ : state) {
        for (auto &ev : events)
            q.schedule(ev, drain_point + rng.below(1000));
        while (!q.empty()) {
            sim::Event *ev = q.pop();
            drain_point = ev->when();
            benchmark::DoNotOptimize(ev);
        }
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EventQueuePushPop);

void
BM_Pcg32(benchmark::State &state)
{
    Pcg32 rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.next());
}
BENCHMARK(BM_Pcg32);

void
BM_SegmentReadRsp(benchmark::State &state)
{
    for (auto _ : state) {
        auto pkt = noc::makePacket(noc::PacketType::ReadRsp, 0, 1, 64);
        benchmark::DoNotOptimize(noc::segmentPacket(pkt, 16));
    }
}
BENCHMARK(BM_SegmentReadRsp);

void
BM_StitchAndUnstitch(benchmark::State &state)
{
    core::StitchEngine engine;
    for (auto _ : state) {
        auto rsp = noc::makePacket(noc::PacketType::ReadRsp, 0, 1, 64);
        auto flits = noc::segmentPacket(rsp, 16);
        auto req = noc::makePacket(noc::PacketType::ReadReq, 0, 1, 128);
        auto req_flit = noc::segmentPacket(req, 16).front();
        auto &tail = flits.back();
        engine.stitch(*tail, req_flit);
        std::vector<noc::FlitPtr> out;
        engine.unstitch(tail, out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_StitchAndUnstitch);

void
BM_ClusterQueueCycle(benchmark::State &state)
{
    core::ClusterQueue cq(1024, {1});
    Pcg32 rng(3);
    for (auto _ : state) {
        for (int i = 0; i < 16 && !cq.hasSpace(1); ++i)
            cq.pop(*cq.pickNext(0, false));
        auto pkt = noc::makePacket(rng.chance(0.5)
                                       ? noc::PacketType::ReadReq
                                       : noc::PacketType::WriteRsp,
                                   0, 2, rng.next());
        cq.push(1, noc::segmentPacket(pkt, 16).front());
        auto pick = cq.pickNext(0, false);
        if (pick) {
            auto parent = cq.front(*pick);
            benchmark::DoNotOptimize(
                cq.takeCandidate(1, parent->freeBytes(), 64,
                                 parent.get()));
            benchmark::DoNotOptimize(cq.pop(*pick));
        }
    }
}
BENCHMARK(BM_ClusterQueueCycle);

void
BM_TagArrayFillLookup(benchmark::State &state)
{
    mem::TagArray tags(64 * 1024, 4, 64, 16);
    Pcg32 rng(5);
    for (auto _ : state) {
        const Addr line = static_cast<Addr>(rng.below(4096)) * 64;
        tags.fill(line, mem::fullMask(4));
        benchmark::DoNotOptimize(tags.covers(line, 0x1));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagArrayFillLookup);

void
BM_CoalesceRandom(benchmark::State &state)
{
    Pcg32 rng(9);
    workloads::Instruction instr;
    instr.elemBytes = 4;
    for (auto _ : state) {
        state.PauseTiming();
        for (auto &a : instr.addrs)
            a = 0x100000000ull + rng.below(1 << 24) * 4;
        state.ResumeTiming();
        benchmark::DoNotOptimize(gpu::coalesce(instr));
    }
}
BENCHMARK(BM_CoalesceRandom);

void
BM_CoalesceAdjacent(benchmark::State &state)
{
    workloads::Instruction instr;
    instr.elemBytes = 4;
    for (std::uint32_t i = 0; i < kWavefrontSize; ++i)
        instr.addrs[i] = 0x100000000ull + i * 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(gpu::coalesce(instr));
}
BENCHMARK(BM_CoalesceAdjacent);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * The Table 3 application models. Each app is a declarative AppSpec —
 * buffers with LASP placement classes plus weighted access streams —
 * instantiated as MixKernels. Sizes are chosen so footprints exceed the
 * aggregate L2 (forcing memory traffic) and random footprints exceed the
 * L2 TLB reach (producing the PTW traffic of Observations 3/4), while
 * keeping single-configuration simulations interactive.
 */

#include <cmath>
#include <limits>

#include "src/sched/lasp.hh"
#include "src/sim/logging.hh"
#include "src/workloads/mix_kernel.hh"
#include "src/workloads/workload.hh"

namespace netcrafter::workloads {

namespace {

using sched::BufferPattern;

/** Declarative buffer description. */
struct BufferSpec
{
    std::uint64_t bytes;
    BufferPattern placement;
};

/** Declarative stream description referencing a buffer by index. */
struct StreamSpec
{
    int buffer;
    AccessStream::Kind kind;
    std::uint8_t elemBytes;
    bool write;
    double weight;
    std::uint64_t stride = 1024;
    double hotFraction = 0;
    std::uint64_t hotElems = 64 * 1024;
};

/** Declarative application description. */
struct AppSpec
{
    const char *name;
    const char *pattern;
    std::vector<BufferSpec> buffers;
    std::vector<StreamSpec> streams;
    std::uint32_t numCtas;
    std::uint32_t wavesPerCta;
    std::uint32_t instrsPerWave;
    std::uint32_t computeDelay;
    std::uint32_t numKernels = 1;
};

/** A workload driven by an AppSpec. */
class MixWorkload : public Workload
{
  public:
    explicit MixWorkload(AppSpec spec) : spec_(std::move(spec)) {}

    std::string name() const override { return spec_.name; }
    std::string pattern() const override { return spec_.pattern; }

    void
    build(BuildContext &ctx) override
    {
        NC_ASSERT(ctx.placement != nullptr, "build without placement");
        std::vector<Addr> bases;
        std::vector<std::uint64_t> sizes;
        for (const auto &buf : spec_.buffers) {
            const Addr base = ctx.alloc(buf.bytes);
            bases.push_back(base);
            sizes.push_back(buf.bytes);
            sched::placeBuffer(*ctx.placement, base, buf.bytes,
                               buf.placement, ctx.numGpus);
        }

        KernelInfo shape;
        shape.numCtas = spec_.numCtas;
        shape.wavesPerCta = spec_.wavesPerCta;
        const double instrs = std::round(spec_.instrsPerWave * ctx.scale);
        if (!(instrs >= 0 &&
              instrs <= std::numeric_limits<std::uint32_t>::max())) {
            NC_FATAL(spec_.name, ": scale ", ctx.scale, " gives ", instrs,
                     " instructions per wavefront, which does not fit 32 "
                     "bits");
        }
        shape.instructionsPerWave = std::max<std::uint32_t>(
            1, static_cast<std::uint32_t>(instrs));

        std::vector<AccessStream> streams;
        for (const auto &ss : spec_.streams) {
            AccessStream s;
            switch (ss.kind) {
              case AccessStream::Kind::Adjacent:
                s.kind = AccessStream::Kind::Adjacent;
                break;
              case AccessStream::Kind::Random:
                s.kind = AccessStream::Kind::Random;
                break;
              case AccessStream::Kind::Strided:
                s.kind = AccessStream::Kind::Strided;
                break;
              case AccessStream::Kind::PartitionedRandom:
                s.kind = AccessStream::Kind::PartitionedRandom;
                break;
            }
            s.base = bases.at(ss.buffer);
            s.elemBytes = ss.elemBytes;
            s.elems = sizes.at(ss.buffer) / ss.elemBytes;
            s.stride = ss.stride;
            s.hotFraction = ss.hotFraction;
            s.hotElems = ss.hotElems;
            s.write = ss.write;
            s.weight = ss.weight;
            streams.push_back(s);
        }

        kernels_.clear();
        for (std::uint32_t k = 0; k < spec_.numKernels; ++k) {
            kernels_.push_back(std::make_unique<MixKernel>(
                shape, streams, spec_.computeDelay));
        }
    }

    const std::vector<std::unique_ptr<Kernel>> &
    kernels() const override
    {
        return kernels_;
    }

  private:
    AppSpec spec_;
    std::vector<std::unique_ptr<Kernel>> kernels_;
};

constexpr auto kAdj = AccessStream::Kind::Adjacent;
constexpr auto kRnd = AccessStream::Kind::Random;
constexpr auto kStr = AccessStream::Kind::Strided;
constexpr auto kPart = AccessStream::Kind::PartitionedRandom;

constexpr std::uint64_t MiB = 1024ull * 1024;

/** The twelve classic applications of Table 3. */
AppSpec
classicSpec(const std::string &name)
{
    if (name == "GUPS") {
        // Giga-updates per second: random 8B read-modify-writes over a
        // large interleaved table.
        return AppSpec{
            "GUPS", "Random",
            {{64 * MiB, BufferPattern::Interleaved}},
            {{0, kRnd, 8, false, 0.55},
             {0, kRnd, 8, true, 0.45}},
            128, 2, 6, 4};
    }
    if (name == "MT") {
        // Matrix transpose: column-gather reads, row-adjacent writes.
        return AppSpec{
            "MT", "Gather",
            {{32 * MiB, BufferPattern::Interleaved},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kStr, 4, false, 0.3, 256},
             {0, kAdj, 4, false, 0.3},
             {1, kAdj, 4, true, 0.4}},
            128, 2, 6, 4};
    }
    if (name == "MIS") {
        // Maximal independent set: irregular graph reads, few writes.
        return AppSpec{
            "MIS", "Random",
            {{64 * MiB, BufferPattern::Interleaved},
             {16 * MiB, BufferPattern::Chunked}},
            {{0, kRnd, 4, false, 0.5, 1024, 0.35, 16384},
             {1, kAdj, 4, false, 0.35},
             {0, kRnd, 4, true, 0.15}},
            128, 2, 6, 4};
    }
    if (name == "IM2COL") {
        // Image-to-column: streaming reads/writes over chunked tensors.
        return AppSpec{
            "IM2COL", "Adjacent",
            {{32 * MiB, BufferPattern::Chunked},
             {48 * MiB, BufferPattern::Chunked},
             {16 * MiB, BufferPattern::Interleaved}},
            {{0, kAdj, 4, false, 0.55},
             {1, kAdj, 4, true, 0.3},
             {2, kAdj, 4, false, 0.15}},
            128, 2, 20, 6};
    }
    if (name == "ATAX") {
        // y = A^T (A x): streaming reads of A, scatter writes of y,
        // shared vector x.
        return AppSpec{
            "ATAX", "Scatter",
            {{48 * MiB, BufferPattern::Chunked},
             {8 * MiB, BufferPattern::Interleaved},
             {4 * MiB, BufferPattern::Shared}},
            {{0, kAdj, 4, false, 0.5},
             {1, kStr, 4, true, 0.3, 256},
             {2, kRnd, 4, false, 0.2}},
            128, 2, 8, 4};
    }
    if (name == "BS") {
        // Blackscholes: each CTA works on its own option partition.
        return AppSpec{
            "BS", "Partitioned",
            {{32 * MiB, BufferPattern::Chunked},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kPart, 4, false, 0.7},
             {1, kPart, 4, true, 0.3}},
            128, 2, 6, 10};
    }
    if (name == "MM2") {
        // Two dense matrix multiplications: adjacent A, column-gather B.
        return AppSpec{
            "MM2", "Gather",
            {{32 * MiB, BufferPattern::Chunked},
             {32 * MiB, BufferPattern::Interleaved},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kAdj, 4, false, 0.55},
             {1, kStr, 4, false, 0.2, 256},
             {2, kAdj, 4, true, 0.25}},
            128, 2, 5, 6, 2};
    }
    if (name == "MVT") {
        // Matrix-vector product and transpose: gather + scatter.
        return AppSpec{
            "MVT", "Scatter,Gather",
            {{48 * MiB, BufferPattern::Interleaved},
             {8 * MiB, BufferPattern::Interleaved}},
            {{0, kStr, 4, false, 0.55, 512},
             {1, kStr, 4, true, 0.25, 128},
             {0, kAdj, 4, false, 0.2}},
            128, 2, 6, 4};
    }
    if (name == "SPMV") {
        // Sparse matrix-vector: random vector gathers, streaming CSR.
        return AppSpec{
            "SPMV", "Random",
            {{64 * MiB, BufferPattern::Interleaved},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kRnd, 4, false, 0.34, 1024, 0.3, 16384},
             {1, kAdj, 4, false, 0.48},
             {1, kAdj, 4, true, 0.18}},
            128, 2, 6, 4};
    }
    if (name == "PR") {
        // PageRank: random rank reads over the edge frontier.
        return AppSpec{
            "PR", "Random",
            {{64 * MiB, BufferPattern::Interleaved},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kRnd, 4, false, 0.45, 1024, 0.55, 16384},
             {1, kAdj, 4, false, 0.35},
             {0, kRnd, 4, true, 0.2}},
            128, 2, 4, 4, 2};
    }
    if (name == "SR") {
        // SHOC reduction: strided tree reduction.
        return AppSpec{
            "SR", "Gather",
            {{48 * MiB, BufferPattern::Interleaved},
             {8 * MiB, BufferPattern::Chunked}},
            {{0, kStr, 4, false, 0.32, 128},
             {0, kAdj, 4, false, 0.48},
             {1, kAdj, 4, true, 0.2}},
            128, 2, 6, 4};
    }
    if (name == "SYR2K") {
        // Symmetric rank-2k update: dense streaming with some gather.
        return AppSpec{
            "SYR2K", "Adjacent",
            {{32 * MiB, BufferPattern::Chunked},
             {32 * MiB, BufferPattern::Interleaved},
             {32 * MiB, BufferPattern::Chunked}},
            {{0, kAdj, 4, false, 0.5},
             {1, kStr, 4, false, 0.05, 256},
             {2, kAdj, 4, false, 0.28},
             {2, kAdj, 4, true, 0.17}},
            128, 2, 20, 6};
    }
    NC_FATAL("unknown classic workload ", name);
}

/**
 * A data-parallel DNN training step: per-layer forward/backward kernels
 * reading replicated weights and local activations, followed by a
 * gradient exchange over interleaved pages (the all-reduce).
 */
AppSpec
dnnSpec(const std::string &name)
{
    if (name == "LENET") {
        return AppSpec{
            "LENET", "-",
            {{8 * MiB, BufferPattern::Chunked},   // weights (replica)
             {16 * MiB, BufferPattern::Chunked},  // activations
             {8 * MiB, BufferPattern::Interleaved}}, // gradients
            {{0, kAdj, 4, false, 0.4},
             {1, kAdj, 4, false, 0.3},
             {1, kAdj, 4, true, 0.1},
             {2, kAdj, 4, false, 0.1},
             {2, kAdj, 4, true, 0.1}},
            64, 2, 10, 16, 4};
    }
    if (name == "VGG16") {
        return AppSpec{
            "VGG16", "-",
            {{48 * MiB, BufferPattern::Chunked},
             {32 * MiB, BufferPattern::Chunked},
             {48 * MiB, BufferPattern::Interleaved}},
            {{0, kAdj, 4, false, 0.22},
             {1, kAdj, 4, false, 0.18},
             {1, kAdj, 4, true, 0.1},
             {2, kAdj, 4, false, 0.22},
             {2, kAdj, 4, true, 0.28}},
            96, 2, 10, 8, 8};
    }
    if (name == "RNET18") {
        return AppSpec{
            "RNET18", "-",
            {{24 * MiB, BufferPattern::Chunked},
             {32 * MiB, BufferPattern::Chunked},
             {24 * MiB, BufferPattern::Interleaved}},
            {{0, kAdj, 4, false, 0.28},
             {1, kAdj, 4, false, 0.22},
             {1, kAdj, 4, true, 0.1},
             {2, kAdj, 4, false, 0.17},
             {2, kAdj, 4, true, 0.23}},
            64, 2, 10, 10, 6};
    }
    NC_FATAL("unknown DNN workload ", name);
}

} // namespace

std::vector<std::string>
workloadNames()
{
    return {"GUPS", "MT",   "MIS",   "IM2COL", "ATAX",
            "BS",   "MM2",  "MVT",   "SPMV",   "PR",
            "SR",   "SYR2K", "VGG16", "LENET",  "RNET18"};
}

WorkloadPtr
makeWorkload(const std::string &name)
{
    if (name == "VGG16" || name == "LENET" || name == "RNET18")
        return std::make_unique<MixWorkload>(dnnSpec(name));
    if (name == "GEMM")
        return makeGemmWorkload();
    return std::make_unique<MixWorkload>(classicSpec(name));
}

std::vector<WorkloadPtr>
makeAllWorkloads()
{
    std::vector<WorkloadPtr> all;
    for (const auto &name : workloadNames())
        all.push_back(makeWorkload(name));
    return all;
}

WorkloadPtr
makeGemmWorkload()
{
    // Large GEMM kernels (Figure 17): dominated by column gathers whose
    // per-line byte needs straddle the 4/8/16B granularity choices.
    AppSpec spec{
        "GEMM", "Gather",
        {{64 * MiB, BufferPattern::Chunked},
         {64 * MiB, BufferPattern::Interleaved},
         {32 * MiB, BufferPattern::Chunked}},
        {{0, kAdj, 8, false, 0.3},
         {1, kStr, 8, false, 0.5, 256},
         {2, kAdj, 8, true, 0.2}},
        128, 2, 6, 6, 2};
    return std::make_unique<MixWorkload>(std::move(spec));
}

} // namespace netcrafter::workloads

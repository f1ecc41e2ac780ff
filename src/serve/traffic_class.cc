#include "src/serve/traffic_class.hh"

#include <cmath>
#include <cstdlib>
#include <sstream>

#include "src/sched/lasp.hh"
#include "src/sim/logging.hh"

namespace netcrafter::serve {

namespace {

using sched::BufferPattern;
using workloads::AccessStream;

constexpr std::uint64_t kMiB = 1ull << 20;

/** Footprint scaled like app buffers, but never below one page. */
std::uint64_t
scaledBytes(std::uint64_t bytes, double scale)
{
    const auto scaled = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(bytes) * scale));
    return std::max<std::uint64_t>(scaled, kPageBytes);
}

} // namespace

const char *
trafficClassName(TrafficClass cls)
{
    switch (cls) {
      case TrafficClass::ReadHeavy: return "read";
      case TrafficClass::WriteHeavy: return "write";
      case TrafficClass::PtwHeavy: return "ptw";
    }
    return "(invalid)";
}

double
ClassMix::totalWeight() const
{
    double sum = 0;
    for (double w : weight)
        sum += w;
    return sum;
}

double
ClassMix::share(TrafficClass cls) const
{
    return weight[static_cast<std::size_t>(cls)] / totalWeight();
}

std::string
ClassMix::toString() const
{
    std::ostringstream os;
    os.precision(17);
    os << weight[0] << ':' << weight[1] << ':' << weight[2];
    return os.str();
}

void
ClassMix::validate() const
{
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        NC_ASSERT(std::isfinite(weight[c]) && weight[c] >= 0.0,
                  "class-mix weight ", c, " invalid: ", weight[c]);
    }
    NC_ASSERT(totalWeight() > 0.0, "class mix has zero total weight");
}

ClassMix
parseClassMix(const std::string &text, const char *what)
{
    const std::string source = what ? std::string(what) + ": " : "";
    ClassMix mix;
    std::size_t pos = 0;
    for (std::size_t c = 0; c < kNumTrafficClasses; ++c) {
        const std::size_t sep = text.find(':', pos);
        const bool last = c + 1 == kNumTrafficClasses;
        if (last != (sep == std::string::npos))
            NC_FATAL(source, "bad class mix '", text,
                     "' (want read:write:ptw)");
        const std::string field = text.substr(
            pos, last ? std::string::npos : sep - pos);
        char *end = nullptr;
        const double w = std::strtod(field.c_str(), &end);
        if (field.empty() || end == nullptr || *end != '\0' ||
            !std::isfinite(w) || w < 0.0) {
            NC_FATAL(source, "bad class-mix weight '", field, "' in '",
                     text, "'");
        }
        mix.weight[c] = w;
        pos = sep + 1;
    }
    if (mix.totalWeight() <= 0.0)
        NC_FATAL(source, "class mix '", text, "' has zero total weight");
    return mix;
}

ClassKernels
buildClassKernels(workloads::BuildContext &ctx)
{
    NC_ASSERT(ctx.placement != nullptr,
              "buildClassKernels without placement");
    ClassKernels out;

    // The shared kernel shape: CTA id = home GPU (so PartitionedRandom
    // streams stay in the dispatching GPU's chunk), the wave id is the
    // stream-local request index and therefore unbounded.
    workloads::KernelInfo shape;
    shape.numCtas = ctx.numGpus;
    shape.wavesPerCta = 0xffffffffu;

    auto makeBuffer = [&](std::uint64_t bytes, BufferPattern pattern) {
        const std::uint64_t sized = scaledBytes(bytes, ctx.scale);
        const Addr base = ctx.alloc(sized);
        sched::placeBuffer(*ctx.placement, base, sized, pattern,
                           ctx.numGpus);
        return std::pair<Addr, std::uint64_t>{base, sized};
    };

    // read: bulk data service. Adjacent scans of a chunked buffer plus
    // hot-region random reads of an interleaved one — mostly full-line
    // traffic, the class Trimming and chunking help most.
    {
        const auto [scanBase, scanBytes] =
            makeBuffer(48 * kMiB, BufferPattern::Chunked);
        const auto [hotBase, hotBytes] =
            makeBuffer(24 * kMiB, BufferPattern::Interleaved);
        std::vector<AccessStream> streams(2);
        streams[0].kind = AccessStream::Kind::Adjacent;
        streams[0].base = scanBase;
        streams[0].elems = scanBytes / 4;
        streams[0].elemBytes = 4;
        streams[0].weight = 3.0;
        streams[1].kind = AccessStream::Kind::Random;
        streams[1].base = hotBase;
        streams[1].elems = hotBytes / 4;
        streams[1].elemBytes = 4;
        streams[1].hotFraction = 0.8;
        streams[1].weight = 1.0;
        workloads::KernelInfo info = shape;
        info.instructionsPerWave = 24;
        out.kernels[0] = std::make_unique<workloads::MixKernel>(
            info, std::move(streams), /*compute_delay=*/6);
    }

    // write: streaming stores into this GPU's chunk plus a read tail —
    // exercises the write path and its ack traffic.
    {
        const auto [dstBase, dstBytes] =
            makeBuffer(32 * kMiB, BufferPattern::Chunked);
        const auto [srcBase, srcBytes] =
            makeBuffer(16 * kMiB, BufferPattern::Interleaved);
        std::vector<AccessStream> streams(2);
        streams[0].kind = AccessStream::Kind::PartitionedRandom;
        streams[0].base = dstBase;
        streams[0].elems = dstBytes / 8;
        streams[0].elemBytes = 8;
        streams[0].lanesPerPage = 16;
        streams[0].write = true;
        streams[0].weight = 3.0;
        streams[1].kind = AccessStream::Kind::Adjacent;
        streams[1].base = srcBase;
        streams[1].elems = srcBytes / 8;
        streams[1].elemBytes = 8;
        streams[1].weight = 1.0;
        workloads::KernelInfo info = shape;
        info.instructionsPerWave = 20;
        out.kernels[1] = std::make_unique<workloads::MixKernel>(
            info, std::move(streams), /*compute_delay=*/6);
    }

    // ptw: page-granular random probes over a footprint far past the
    // L2-TLB reach (lanesPerPage = 1 touches 64 distinct pages per
    // instruction), so nearly every access risks a page walk. This is
    // the latency-critical class Sequencing protects.
    {
        const auto [tblBase, tblBytes] =
            makeBuffer(96 * kMiB, BufferPattern::Interleaved);
        std::vector<AccessStream> streams(1);
        streams[0].kind = AccessStream::Kind::Random;
        streams[0].base = tblBase;
        streams[0].elems = tblBytes / 8;
        streams[0].elemBytes = 8;
        streams[0].lanesPerPage = 1;
        streams[0].weight = 1.0;
        workloads::KernelInfo info = shape;
        info.instructionsPerWave = 12;
        out.kernels[2] = std::make_unique<workloads::MixKernel>(
            info, std::move(streams), /*compute_delay=*/4);
    }

    return out;
}

} // namespace netcrafter::serve

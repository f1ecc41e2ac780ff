#include "src/noc/flit.hh"

#include "src/sim/logging.hh"

namespace netcrafter::noc {

FlitPtr
makeFlit()
{
    return sim::ObjectPool<Flit>::local().allocate();
}

FlitPtr
makeFlit(const Flit &other)
{
    FlitPtr flit = sim::ObjectPool<Flit>::local().allocate();
    *flit = other;
    return flit;
}

std::vector<FlitPtr>
segmentPacket(const PacketPtr &pkt, std::uint32_t flit_bytes)
{
    std::vector<FlitPtr> flits;
    segmentPacket(pkt, flit_bytes,
                  [&](FlitPtr f) { flits.push_back(std::move(f)); });
    return flits;
}

} // namespace netcrafter::noc

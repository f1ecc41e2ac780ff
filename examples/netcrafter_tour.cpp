/**
 * @file
 * Example: a guided tour of the NetCrafter mechanisms at flit level,
 * using the core components directly (no full system). Demonstrates
 * Table 1 segmentation, Stitching with ID+Size metadata, Trimming, and
 * Sequencing through the controller + un-stitcher pair — mirroring the
 * Figure 11 walkthrough.
 */

#include <iostream>

#include "src/core/controller.hh"
#include "src/sim/engine.hh"

int
main()
{
    using namespace netcrafter;
    using noc::PacketType;

    std::cout << "== 1. Segmentation (Table 1) ==\n";
    auto rsp = noc::makePacket(PacketType::ReadRsp, 0, 2, 0x1000);
    auto rsp_flits = noc::segmentPacket(rsp, 16);
    std::cout << "A read response (" << rsp->totalBytes()
              << "B) segments into " << rsp_flits.size()
              << " flits; the tail carries "
              << rsp_flits.back()->occupiedBytes << "B and wastes "
              << rsp_flits.back()->freeBytes() << "B of padding.\n\n";

    std::cout << "== 2. Stitching (Section 4.2) ==\n";
    core::StitchEngine stitcher;
    auto req = noc::makePacket(PacketType::ReadReq, 1, 3, 0x2000);
    auto req_flit = noc::segmentPacket(req, 16).front();
    std::cout << "A 12B read request fits the tail's "
              << rsp_flits.back()->freeBytes() << " free bytes: ";
    stitcher.stitch(*rsp_flits.back(), req_flit);
    std::cout << "stitched. The wire flit now carries "
              << rsp_flits.back()->usedBytes() << "/16 bytes.\n";
    std::vector<noc::FlitPtr> restored;
    stitcher.unstitch(rsp_flits.back(), restored);
    std::cout << "Un-stitching restores " << restored.size()
              << " flits at the receiving cluster switch.\n\n";

    std::cout << "== 3. Trimming (Section 4.3) ==\n";
    core::TrimEngine trimmer(16);
    auto fat = noc::makePacket(PacketType::ReadRsp, 0, 2, 0x3000);
    fat->interCluster = true;
    fat->trimEligible = true; // the wavefront needed 8B of the line
    fat->bytesNeeded = 8;
    fat->neededOffset = 32;
    std::cout << "Before: " << fat->totalBytes() << "B ("
              << noc::flitsForBytes(fat->totalBytes(), 16)
              << " flits). ";
    trimmer.trim(*fat);
    std::cout << "After trimming to sector "
              << static_cast<int>(fat->trimSector) << ": "
              << fat->totalBytes() << "B ("
              << noc::flitsForBytes(fat->totalBytes(), 16)
              << " flits).\n\n";

    std::cout << "== 4. Sequencing (Section 4.3) ==\n";
    sim::Engine engine;
    noc::FlitBuffer out(256);
    config::NetCrafterConfig cfg;
    cfg.sequencing = config::SequencingMode::PrioritizePtw;
    core::NetCrafterController ctrl(
        engine, "demo", cfg, [](GpuId g) { return g / 2; },
        std::vector<ClusterId>{1}, out, 1, nullptr);

    // A bulky write queued ahead of a latency-critical PTW request.
    for (auto &f : noc::segmentPacket(
             noc::makePacket(PacketType::WriteReq, 0, 2, 0x4000), 16))
        ctrl.tryAccept(std::move(f));
    auto pt = noc::makePacket(PacketType::PageTableReq, 0, 3, 0x5000);
    pt->latencyCritical = true;
    ctrl.tryAccept(noc::segmentPacket(pt, 16).front());
    engine.run();

    std::cout << "Ejection order with PTW priority:";
    while (!out.empty()) {
        auto f = out.pop();
        std::cout << " " << noc::packetTypeName(f->pkt->type);
    }
    std::cout << "\n(the page-table request overtakes the write's five "
                 "flits)\n";
    return 0;
}

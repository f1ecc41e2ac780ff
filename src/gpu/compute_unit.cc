#include "src/gpu/compute_unit.hh"

#include <algorithm>
#include <array>

#include "src/sim/logging.hh"

namespace netcrafter::gpu {

ComputeUnit::ComputeUnit(sim::Engine &engine, std::string name,
                         const CuParams &params,
                         mem::L1Cache::FillFn fill,
                         vm::Tlb::MissHandler tlb_miss,
                         std::function<void(const WaveDesc &)> wave_done)
    : SimObject(engine, std::move(name)), params_(params),
      waveDone_(std::move(wave_done)), waves_(params.maxResidentWaves)
{
    // An instruction touches at most one line per lane: sized once, a
    // slot's line list never reallocates.
    for (WaveState &wave : waves_)
        wave.lines.reserve(kWavefrontSize);
    l1_ = std::make_unique<mem::L1Cache>(engine, this->name() + ".l1",
                                         params_.l1, std::move(fill));
    l1Tlb_ = std::make_unique<vm::Tlb>(engine, this->name() + ".l1tlb",
                                       params_.l1Tlb,
                                       std::move(tlb_miss));
    if (params_.wakeOnL1Unblock) {
        l1_->setUnblockHook([this] {
            if (stalled_) {
                stalled_ = false;
                scheduleDispatch();
            }
        });
    }
}

void
ComputeUnit::startWavefront(const WaveDesc &desc)
{
    NC_ASSERT(hasFreeSlot(), name(), ": no free wavefront slot");
    NC_ASSERT(desc.kernel != nullptr, "wavefront without kernel");
    WaveState *wave = &*std::find_if(
        waves_.begin(), waves_.end(),
        [](const WaveState &w) { return !w.resident; });
    wave->desc = desc;
    wave->rng = Pcg32(desc.seed,
                      (static_cast<std::uint64_t>(desc.cta) << 20) ^
                          desc.wave);
    wave->resident = true;
    wave->nextInstr = 0;
    wave->pendingTranslations = 0;
    wave->pendingLines = 0;
    wave->computeDelay = 0;
    ++resident_;
    // Stagger wavefront starts slightly so they do not lockstep.
    schedule(1 + (resident_ % 4), [this, wave] { startInstruction(wave); });
}

void
ComputeUnit::startInstruction(WaveState *wave)
{
    workloads::Instruction instr;
    const bool has = wave->desc.kernel->generate(
        wave->desc.cta, wave->desc.wave, wave->nextInstr, wave->rng,
        instr);
    if (!has) {
        retireWave(wave);
        return;
    }
    ++wave->nextInstr;
    ++instructions_;

    const CoalescedAccesses accesses = coalesce(instr);
    if (accesses.empty()) {
        // A pure-compute step: just burn the delay.
        schedule(std::max<Tick>(1, instr.computeDelay),
                 [this, wave] { startInstruction(wave); });
        return;
    }

    wave->computeDelay = instr.computeDelay;
    wave->pendingLines = static_cast<std::uint32_t>(accesses.size());
    wave->lines.assign(accesses.begin(), accesses.end());

    // Each distinct virtual page needs one translation before its lines
    // can be dispatched; translations issue in ascending page order.
    std::array<Addr, kWavefrontSize> vpns;
    std::size_t n = 0;
    for (const CoalescedAccess &a : accesses)
        vpns[n++] = a.line / kPageBytes;
    std::sort(vpns.begin(), vpns.begin() + n);
    n = static_cast<std::size_t>(
        std::unique(vpns.begin(), vpns.begin() + n) - vpns.begin());

    wave->pendingTranslations = static_cast<std::uint32_t>(n);
    for (std::size_t i = 0; i < n; ++i)
        issueTranslation(wave, vpns[i]);
}

void
ComputeUnit::issueTranslation(WaveState *wave, Addr vpn)
{
    l1Tlb_->access(vpn, [this, wave, vpn](vm::Translation) {
        NC_ASSERT(wave->pendingTranslations > 0,
                  "translation underflow");
        --wave->pendingTranslations;
        enqueueLines(wave, vpn);
    });
}

void
ComputeUnit::enqueueLines(WaveState *wave, Addr vpn)
{
    for (const CoalescedAccess &a : wave->lines) {
        if (a.line / kPageBytes == vpn)
            dispatchQueue_.push_back(PendingLine{wave, a});
    }
    scheduleDispatch();
}

void
ComputeUnit::scheduleDispatch()
{
    if (dispatchEvent_.scheduled() || dispatchQueue_.empty())
        return;
    engine().schedule(dispatchEvent_, 1);
}

void
ComputeUnit::dispatchCycle()
{
    if (rejectedAt_ == l1_->stateVersion()) {
        // Nothing the head's acceptance depends on changed since it was
        // rejected: the lookup would reject it again.
        l1_->countRejection();
        if (params_.wakeOnL1Unblock)
            stalled_ = true;
        else
            scheduleDispatch();
        return;
    }
    rejectedAt_ = kNoRejection;
    std::uint32_t issued = 0;
    while (issued < params_.issueWidth && !dispatchQueue_.empty()) {
        PendingLine &pl = dispatchQueue_.front();
        WaveState *wave = pl.wave;
        const CoalescedAccess a = pl.access;
        bool accepted;
        if (a.isWrite) {
            accepted = l1_->access(a.line, a.offset, a.bytes, true,
                                   nullptr);
            if (accepted) {
                // Writes complete for the wavefront at acceptance; the
                // write-through ack only recycles the tracking slot.
                dispatchQueue_.pop_front();
                ++issued;
                lineDone(wave);
            }
        } else {
            accepted = l1_->access(a.line, a.offset, a.bytes, false,
                                   [this, wave] { lineDone(wave); });
            if (accepted) {
                dispatchQueue_.pop_front();
                ++issued;
            }
        }
        if (!accepted) {
            rejectedAt_ = l1_->stateVersion();
            if (params_.wakeOnL1Unblock) {
                stalled_ = true;
                return; // woken by the L1 unblock hook
            }
            break; // L1 MSHRs full: stall the issue port this cycle
        }
    }
    scheduleDispatch();
}

void
ComputeUnit::lineDone(WaveState *wave)
{
    NC_ASSERT(wave->pendingLines > 0, "line completion underflow");
    --wave->pendingLines;
    maybeFinishInstruction(wave);
}

void
ComputeUnit::maybeFinishInstruction(WaveState *wave)
{
    if (wave->pendingLines != 0 || wave->pendingTranslations != 0)
        return;
    schedule(std::max<Tick>(1, wave->computeDelay),
             [this, wave] { startInstruction(wave); });
}

void
ComputeUnit::retireWave(WaveState *wave)
{
    NC_ASSERT(wave->resident, name(), ": retired wavefront not resident");
    // Copy the descriptor out: the callback may refill this slot.
    const WaveDesc desc = wave->desc;
    wave->resident = false;
    --resident_;
    if (waveDone_)
        waveDone_(desc);
}

} // namespace netcrafter::gpu

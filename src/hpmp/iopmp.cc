#include "hpmp/iopmp.h"

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/trace.h"

namespace hpmp
{

IopmpUnit::IopmpUnit(PhysMem &mem, unsigned num_masters,
                     unsigned entries_per_master)
    : mem_(mem)
{
    fatal_if(num_masters == 0, "IOPMP needs at least one master");
    stats_.add("checks", &checks_);
    stats_.add("denials", &denials_);
    for (unsigned i = 0; i < num_masters; ++i) {
        masters_.push_back(
            std::make_unique<HpmpUnit>(mem, entries_per_master, 0));
        // Per-master groups: each source ID gets the full HpmpUnit
        // counter set plus its PMPTW-cache as a child group.
        const std::string prefix = "iopmp.master" + std::to_string(i);
        masterStats_.push_back(std::make_unique<StatGroup>(prefix));
        masters_.back()->registerStats(*masterStats_.back());
        masterStats_.push_back(
            std::make_unique<StatGroup>(prefix + ".pmptw_cache"));
        masters_.back()->pmptwCache().registerStats(
            *masterStats_.back());
    }
}

HpmpUnit &
IopmpUnit::master(MasterId id)
{
    panic_if(id >= masters_.size(), "unknown DMA master %u", id);
    return *masters_[id];
}

HpmpCheckResult
IopmpUnit::check(MasterId id, Addr pa, uint64_t size, AccessType type)
{
    ++checks_;
    // A glitched IOPMP lookup fails closed: the beat is denied as an
    // access fault, never silently let through.
    if (FAULT_POINT("iopmp.check")) {
        HpmpCheckResult denied;
        denied.fault = type == AccessType::Store
                           ? Fault::StoreAccessFault
                           : Fault::LoadAccessFault;
        ++denials_;
        DPRINTF(Fault, "iopmp.check injected deny master=%u pa=%#lx\n",
                id, pa);
        return denied;
    }
    HpmpCheckResult result =
        master(id).check(pa, size, type, PrivMode::User);
    if (!result.ok()) {
        ++denials_;
        DPRINTF(Hpmp, "iopmp deny master=%u pa=%#lx type=%u\n", id, pa,
                unsigned(type));
    }
    return result;
}

void
IopmpUnit::flushCaches()
{
    for (auto &m : masters_)
        m->flushCache();
}

void
IopmpUnit::registerStats(StatRegistry &registry)
{
    registry.add(&stats_);
    for (auto &g : masterStats_)
        registry.add(g.get());
}

DmaEngine::TransferResult
DmaEngine::transfer(Addr src, Addr dst, uint64_t bytes)
{
    TransferResult result;
    PhysMem &mem = iopmp_.mem();
    // A poisoned pmpte consumed by a master's table walk poisons the
    // check, not just the beat: drop the PMPTW-cache state derived
    // from the bad read before failing the transfer (fail closed).
    auto refsPoisoned = [&](const HpmpCheckResult &check) {
        for (const PmptRef &ref : check.pmptRefs) {
            if (mem.isPoisoned(ref.pa, 8)) {
                iopmp_.flushCaches();
                return true;
            }
        }
        return false;
    };
    for (uint64_t off = 0; off < bytes; off += 64) {
        const uint64_t beat = std::min<uint64_t>(64, bytes - off);
        uint64_t beatCycles = 0;
        bool beatOk = true;

        HpmpCheckResult read_check =
            iopmp_.check(id_, src + off, beat, AccessType::Load);
        result.pmptRefs += unsigned(read_check.pmptRefs.size());
        for (const PmptRef &ref : read_check.pmptRefs)
            beatCycles += hier_.access(ref.pa).cycles;
        if (!read_check.ok() || refsPoisoned(read_check)) {
            result.ok = false;
            result.machineCheck = read_check.ok();
            result.faultAddr = src + off;
            beatOk = false;
        }

        if (beatOk) {
            HpmpCheckResult write_check =
                iopmp_.check(id_, dst + off, beat, AccessType::Store);
            result.pmptRefs += unsigned(write_check.pmptRefs.size());
            for (const PmptRef &ref : write_check.pmptRefs)
                beatCycles += hier_.access(ref.pa).cycles;
            if (!write_check.ok() || refsPoisoned(write_check)) {
                result.ok = false;
                result.machineCheck = write_check.ok();
                result.faultAddr = dst + off;
                beatOk = false;
            }
        }

        // The device read consumes poison on the source line: the
        // beat fails with a machine check instead of moving corrupt
        // data into the destination domain.
        if (beatOk && mem.isPoisoned(src + off, beat)) {
            result.ok = false;
            result.machineCheck = true;
            result.faultAddr = src + off;
            beatOk = false;
        }

        if (beatOk) {
            beatCycles += hier_.access(src + off).cycles;
            beatCycles += hier_.access(dst + off).cycles;
        }

        // One bus transaction per beat: the IOPMP's table references
        // ride the same grant as the data, so check latency inflates
        // the channel-busy time other masters wait behind. A denied
        // beat still occupied the channel for its check refs.
        if (bus_ != nullptr) {
            const uint64_t wait =
                bus_->acquire(id_, now_, beatCycles);
            result.busWaitCycles += wait;
            result.cycles += wait;
            now_ += wait;
        }
        result.cycles += beatCycles;
        now_ += beatCycles;
        if (!beatOk)
            return result;
        ++result.beats;
    }
    return result;
}

} // namespace hpmp

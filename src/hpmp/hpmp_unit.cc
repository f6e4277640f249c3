#include "hpmp/hpmp_unit.h"

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/trace.h"

namespace hpmp
{

HpmpUnit::HpmpUnit(PhysMem &mem, unsigned num_entries,
                   unsigned pmptw_entries)
    : mem_(mem),
      regs_(num_entries),
      pmptwCache_(pmptw_entries)
{
}

void
LayoutImage::segment(unsigned idx, Addr base, uint64_t size, Perm perm)
{
    addr.at(idx) = PmpUnit::encodeNapot(base, size);
    cfg.at(idx) = PmpCfg::make(perm, PmpAddrMode::Napot);
}

void
LayoutImage::table(unsigned idx, Addr base, uint64_t size, Addr table_root,
                   unsigned levels)
{
    fatal_if(idx + 1 >= entries(),
             "the last HPMP entry cannot be in table mode (no successor "
             "to hold the table base)");
    fatal_if(size > pmpt_geom::coverage(levels),
             "region %#lx larger than table coverage %#lx",
             size, pmpt_geom::coverage(levels));
    addr.at(idx) = PmpUnit::encodeNapot(base, size);
    cfg.at(idx) = PmpCfg::make(Perm::none(), PmpAddrMode::Napot,
                               /*lock=*/false, /*t=*/true);
    cfg.at(idx + 1) = PmpCfg::make(Perm::none(), PmpAddrMode::Off);
    addr.at(idx + 1) = PmptBaseReg::make(table_root, levels).raw;
}

unsigned
HpmpUnit::applyImage(const LayoutImage &img)
{
    fatal_if(img.entries() != regs_.numEntries(),
             "layout image has %u entries, unit has %u", img.entries(),
             regs_.numEntries());

    // Pass 1: fire the per-entry programming fault sites for every
    // entry that will change, before the first CSR write — an injected
    // fault must never leave a half-applied image (the transactional
    // fail-before-mutation contract).
    for (unsigned i = 0; i < img.entries(); ++i) {
        if (img.addr[i] == regs_.addr(i) && img.cfg[i] == regs_.cfg(i).raw)
            continue;
        const PmpCfg want{img.cfg[i]};
        if (want.reservedT() ||
            (want.a() == PmpAddrMode::Off && img.addr[i] != 0)) {
            // Table head or the successor base register it consumes.
            if (FAULT_POINT("hpmp.program_table"))
                throw InjectedFault{"hpmp.program_table"};
        } else if (want.a() == PmpAddrMode::Off) {
            if (FAULT_POINT("hpmp.disable"))
                throw InjectedFault{"hpmp.disable"};
        } else {
            if (FAULT_POINT("hpmp.program_segment"))
                throw InjectedFault{"hpmp.program_segment"};
        }
    }

    unsigned writes = 0;
    for (unsigned i = 0; i < img.entries(); ++i) {
        if (img.addr[i] != regs_.addr(i)) {
            regs_.setAddr(i, img.addr[i]);
            ++writes;
        }
        if (img.cfg[i] != regs_.cfg(i).raw) {
            regs_.setCfg(i, img.cfg[i]);
            ++writes;
        }
    }
    if (writes > 0) {
        DPRINTF(Hpmp, "applyImage: %u CSR writes\n", writes);
        csrWrites_ += writes;
        pmptwCache_.flush();
    }
    return writes;
}

unsigned
HpmpUnit::syncRegsFrom(const HpmpUnit &src)
{
    LayoutImage img(regs_.numEntries());
    fatal_if(src.regs_.numEntries() != regs_.numEntries(),
             "syncRegsFrom across differently sized register files");
    for (unsigned i = 0; i < img.entries(); ++i) {
        img.addr[i] = src.regs_.addr(i);
        img.cfg[i] = src.regs_.cfg(i).raw;
    }
    return applyImage(img);
}

void
HpmpUnit::programSegment(unsigned idx, Addr base, uint64_t size, Perm perm)
{
    // All programming sites fire before the first CSR write: a fault
    // mid-sequence would leave a half-programmed entry, which is
    // exactly the state the monitor's transactions must never expose.
    if (FAULT_POINT("hpmp.program_segment"))
        throw InjectedFault{"hpmp.program_segment"};
    DPRINTF(Hpmp, "programSegment idx=%u base=%#lx size=%#lx perm=%c%c%c\n",
            idx, base, size, perm.r ? 'r' : '-', perm.w ? 'w' : '-',
            perm.x ? 'x' : '-');
    regs_.setAddr(idx, PmpUnit::encodeNapot(base, size));
    regs_.setCfg(idx, PmpCfg::make(perm, PmpAddrMode::Napot));
    csrWrites_ += 2;
    pmptwCache_.flush();
}

void
HpmpUnit::programTable(unsigned idx, Addr base, uint64_t size,
                       Addr table_root, unsigned levels)
{
    fatal_if(idx + 1 >= regs_.numEntries(),
             "the last HPMP entry cannot be in table mode (no successor "
             "to hold the table base)");
    fatal_if(size > pmpt_geom::coverage(levels),
             "region %#lx larger than table coverage %#lx",
             size, pmpt_geom::coverage(levels));
    if (FAULT_POINT("hpmp.program_table"))
        throw InjectedFault{"hpmp.program_table"};
    DPRINTF(Hpmp,
            "programTable idx=%u base=%#lx size=%#lx root=%#lx levels=%u\n",
            idx, base, size, table_root, levels);
    regs_.setAddr(idx, PmpUnit::encodeNapot(base, size));
    regs_.setCfg(idx, PmpCfg::make(Perm::none(), PmpAddrMode::Napot,
                                   /*lock=*/false, /*t=*/true));
    // The successor entry's address register holds the table base; its
    // own config must be OFF so it never matches.
    regs_.setCfg(idx + 1, PmpCfg::make(Perm::none(), PmpAddrMode::Off));
    regs_.setAddr(idx + 1, PmptBaseReg::make(table_root, levels).raw);
    csrWrites_ += 4;
    pmptwCache_.flush();
}

void
HpmpUnit::disable(unsigned idx)
{
    if (FAULT_POINT("hpmp.disable"))
        throw InjectedFault{"hpmp.disable"};
    DPRINTF(Hpmp, "disable idx=%u\n", idx);
    regs_.disable(idx);
    csrWrites_ += 2;
    pmptwCache_.flush();
}

HpmpCheckResult
HpmpUnit::check(Addr pa, uint64_t size, AccessType type, PrivMode priv)
{
    HpmpCheckResult result;

    // The monitor itself (M-mode) is unconstrained: no lock bits are
    // used in this model, matching Penglai's deployment.
    if (priv == PrivMode::Machine) {
        result.perm = Perm::rwx();
        return result;
    }

    ++checks_;
    const int idx = regs_.findMatch(pa, size);
    result.entry = idx;
    if (idx < 0) {
        result.fault = accessFaultFor(type);
        ++denials_;
        DPRINTF(Hpmp, "deny pa=%#lx: no matching entry\n", pa);
        return result;
    }
    if (!regs_.coversAll(unsigned(idx), pa, size)) {
        result.fault = accessFaultFor(type);
        ++denials_;
        DPRINTF(Hpmp, "deny pa=%#lx: partial match at entry %d\n", pa, idx);
        return result;
    }

    const PmpCfg cfg = regs_.cfg(unsigned(idx));

    // WARL legalization: a T bit on the last entry reads as zero.
    const bool table_mode =
        cfg.reservedT() && unsigned(idx) + 1 < regs_.numEntries();

    if (!table_mode) {
        ++segmentChecks_;
        result.perm = cfg.perm();
        if (!result.perm.allows(type)) {
            result.fault = accessFaultFor(type);
            ++denials_;
        }
        return result;
    }

    result.viaTable = true;
    const auto region = regs_.region(unsigned(idx));
    panic_if(!region, "matching entry has no region");
    const uint64_t offset = pa - region->base;
    const PmptBaseReg base_reg{regs_.addr(unsigned(idx) + 1)};

    if (auto cached = pmptwCache_.lookupLeaf(base_reg.tablePa(), offset)) {
        result.viaCache = true;
        ++cacheResolved_;
        const unsigned page = unsigned(pmpt_geom::pageIndex(offset));
        // A reserved nibble bit must deny on a hit exactly as the
        // walker does on a miss.
        if (cached->reservedSet(page) || !cached->perm(page).allows(type)) {
            result.fault = accessFaultFor(type);
            ++denials_;
        }
        return result;
    }

    PmptWalkResult walk = walkPmpTable(mem_, base_reg.tablePa(),
                                       base_reg.levels(), offset);
    ++tableWalks_;
    DPRINTF(Pmpt, "walk root=%#lx offset=%#lx refs=%u valid=%d\n",
            base_reg.tablePa(), offset, unsigned(walk.refs.size()),
            int(walk.valid));
    result.pmptRefs = walk.refs;
    result.perm = walk.valid ? walk.perm : Perm::none();
    if (!walk.valid || !walk.perm.allows(type)) {
        result.fault = accessFaultFor(type);
        ++denials_;
        return result;
    }

    // Fill the PMPTW-Cache with the (possibly synthesized) leaf pmpte.
    if (pmptwCache_.enabled()) {
        if (walk.hugeHit) {
            pmptwCache_.fill(base_reg.tablePa(), offset,
                             LeafPmpte::uniform(walk.perm));
        } else {
            const Addr leaf_slot = walk.refs.back().pa;
            pmptwCache_.fill(base_reg.tablePa(), offset,
                             LeafPmpte{mem_.read64(leaf_slot)});
        }
    }
    return result;
}

Perm
HpmpUnit::probe(Addr pa) const
{
    const int idx = regs_.findMatch(pa, 8);
    if (idx < 0 || !regs_.coversAll(unsigned(idx), pa, 8))
        return Perm::none();

    const PmpCfg cfg = regs_.cfg(unsigned(idx));
    const bool table_mode =
        cfg.reservedT() && unsigned(idx) + 1 < regs_.numEntries();
    if (!table_mode)
        return cfg.perm();

    const auto region = regs_.region(unsigned(idx));
    panic_if(!region, "matching entry has no region");
    const PmptBaseReg base_reg{regs_.addr(unsigned(idx) + 1)};
    const PmptWalkResult walk = walkPmpTable(
        mem_, base_reg.tablePa(), base_reg.levels(), pa - region->base);
    return walk.valid ? walk.perm : Perm::none();
}

void
HpmpUnit::registerStats(StatGroup &group)
{
    group.add("csr_writes", &csrWrites_);
    group.add("checks", &checks_);
    group.add("segment_checks", &segmentChecks_);
    group.add("table_walks", &tableWalks_);
    group.add("cache_resolved", &cacheResolved_);
    group.add("denials", &denials_);
    segmentShare_ = Formula::ratio(segmentChecks_, checks_);
    cacheShare_ = Formula::ratio(cacheResolved_, checks_);
    group.add("segment_share", &segmentShare_);
    group.add("cache_share", &cacheShare_);
}

HpmpUnit::Snapshot
HpmpUnit::takeSnapshot() const
{
    return {regs_.snapshot(), csrWrites_.value()};
}

void
HpmpUnit::restoreSnapshot(const Snapshot &snap)
{
    regs_.restore(snap.regs);
    csrWrites_.reset();
    csrWrites_ += snap.csrWrites;
    pmptwCache_.flush();
}

} // namespace hpmp

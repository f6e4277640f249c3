/**
 * @file
 * Cold-walk probes: one TLB-missing access per scheme from cold
 * caches, whose reference counts the paper states exactly (Fig. 2:
 * 4 / 12 / 6 for PMP / PMPT / HPMP on Sv39; Fig. 8: 16 / 48 / 24 / 18
 * for PMP / PMPT / HPMP / HPMP-GPT through the 3D walk).
 */

#include <string>

#include "pmpt/pmp_table.h"
#include "pt/page_table.h"
#include "sim/report.h"
#include "workloads/virt_env.h"

namespace perfbench
{

using namespace hpmp;

namespace
{

constexpr Addr kPtPool = 256_MiB;
constexpr uint64_t kPtPoolSize = 16_MiB;
constexpr Addr kDataBase = 4_GiB;
// Non-trivial VPN[2]/VPN[1], so walk levels do not share one L1 set.
constexpr Addr kVaBase = 0x2A5A000000;

unsigned
coldRefs(IsolationScheme scheme)
{
    Machine machine(rocketParams());
    PageTable pt(machine.mem(), bumpAllocator(kPtPool), PagingMode::Sv39);
    pt.map(kVaBase, kDataBase, Perm::rw(), true);

    PmpTable table(machine.mem(), bumpAllocator(64_MiB), 2);
    table.setPerm(kPtPool, kPtPoolSize, Perm::rw());
    table.setPerm(kDataBase, 64_MiB, Perm::rwx());

    HpmpUnit &unit = machine.hpmp();
    switch (scheme) {
      case IsolationScheme::None:
        unit.programSegment(0, 0, 16_GiB, Perm::rwx());
        break;
      case IsolationScheme::Pmp:
        unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
        unit.programSegment(1, kDataBase, 4_GiB, Perm::rwx());
        break;
      case IsolationScheme::PmpTable:
        unit.programTable(0, 0, 16_GiB, table.rootPa());
        break;
      case IsolationScheme::Hpmp:
        unit.programSegment(0, kPtPool, kPtPoolSize, Perm::rw());
        unit.programTable(1, 0, 16_GiB, table.rootPa());
        break;
    }
    machine.setSatp(pt.rootPa(), PagingMode::Sv39);
    machine.setPriv(PrivMode::User);
    machine.coldReset();
    const AccessOutcome out = machine.access(kVaBase, AccessType::Load);
    return out.ok() ? out.totalRefs() : 0;
}

} // namespace

void
probeSv39(Report &report)
{
    const struct { IsolationScheme scheme; const char *name; unsigned refs; }
        expected[] = {{IsolationScheme::Pmp, "pmp", 4},
                      {IsolationScheme::PmpTable, "pmpt", 12},
                      {IsolationScheme::Hpmp, "hpmp", 6}};
    for (const auto &e : expected) {
        const unsigned refs = coldRefs(e.scheme);
        report.check(std::string("cold_walk_refs.") + e.name,
                     refs == e.refs,
                     std::to_string(refs) + " refs, paper " +
                         std::to_string(e.refs));
    }
}

void
probeVirt(Report &report)
{
    const struct { VirtScheme scheme; const char *name; unsigned refs; }
        expected[] = {{VirtScheme::Pmp, "pmp", 16},
                      {VirtScheme::Pmpt, "pmpt", 48},
                      {VirtScheme::Hpmp, "hpmp", 24},
                      {VirtScheme::HpmpGpt, "hpmp_gpt", 18}};
    for (const auto &e : expected) {
        VirtEnv env(CoreKind::Rocket, e.scheme);
        const Addr gva = env.mapGuestPages(1);
        env.vm().coldReset();
        const VirtAccessOutcome out = env.vm().access(gva, AccessType::Load);
        const unsigned refs = out.ok() ? out.totalRefs() : 0;
        report.check(std::string("cold_3d_walk_refs.") + e.name,
                     refs == e.refs,
                     std::to_string(refs) + " refs, paper " +
                         std::to_string(e.refs));
    }
}

} // namespace perfbench

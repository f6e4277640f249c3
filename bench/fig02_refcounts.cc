/**
 * @file
 * Figures 2 and 4: memory-reference counts for one TLB-missing load
 * under each isolation scheme, across Sv39/Sv48/Sv57 — the paper's
 * motivating arithmetic (4 -> 12 with a 2-level permission table ->
 * 6 with HPMP on Sv39), generated by the actual walkers.
 */

#include "bench/common.h"

namespace hpmp::bench
{
namespace
{

unsigned
coldRefs(const MachineParams &params, IsolationScheme scheme,
         PagingMode mode, Json &captures, const std::string &label)
{
    MicroEnv env(params, scheme, mode);
    env.pt().map(MicroEnv::kVaBase, MicroEnv::kDataBase, Perm::rw(), true);
    Machine &machine = env.machine();
    machine.coldReset();
    const AccessOutcome out =
        machine.access(MicroEnv::kVaBase, AccessType::Load);
    if (!out.ok())
        fatal("refcount access faulted: %s", toString(out.fault));
    captures.add(label, statsOf(machine));
    return out.totalRefs();
}

} // namespace

void
fig02_refcounts(Report &report)
{
    Json captures = Json::object();
    banner("Figures 2 & 4: memory references per TLB-missing load "
           "(2-level PMP Table)");
    row({"", "page-table", "+PMP", "+PMP Table", "HPMP"});

    const MachineParams params = rocketParams();
    const struct { PagingMode mode; const char *name; } modes[] = {
        {PagingMode::Sv39, "Sv39"},
        {PagingMode::Sv48, "Sv48"},
        {PagingMode::Sv57, "Sv57"},
    };
    for (const auto &[mode, name] : modes) {
        auto cell = [&](IsolationScheme scheme, const char *tag) {
            return std::to_string(coldRefs(
                params, scheme, mode,
                captures, std::string(name) + "." + tag));
        };
        row({name, cell(IsolationScheme::None, "base"),
             cell(IsolationScheme::Pmp, "pmp"),
             cell(IsolationScheme::PmpTable, "pmpt"),
             cell(IsolationScheme::Hpmp, "hpmp")});
    }
    std::printf("  Paper (Sv39): 4 / 4 / 12 / 6. The extra-dimension "
                "share grows with deeper tables (fn.1).\n");
    report.json.add("fig02_refcounts", std::move(captures));
}

} // namespace hpmp::bench

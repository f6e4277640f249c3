#include "workloads/runner.h"

#include "base/logging.h"

namespace hpmp
{

Runner::Runner(Kernel &kernel, AddressSpace &as, CoreModel &model)
    : kernel_(kernel),
      machine_(kernel.machine()),
      as_(&as),
      model_(model)
{
}

void
Runner::serviceFault(Addr va, AccessType type, Fault fault)
{
    if (!as_->handleFault(va, type))
        panic("unhandled fault (%s) at va %#lx", toString(fault), va);
    ++faults_;
    model_.addInstructions(kFaultKernelInstrs);

    const AccessOutcome out = chargedAccess(va, type);
    panic_if(!out.ok(), "fault persists at va %#lx: %s", va,
             toString(out.fault));
}

uint64_t
Runner::load64(Addr va)
{
    accessChecked(va, AccessType::Load);
    auto pa = as_->pageTable().translate(va);
    return pa ? machine_.mem().read64(alignDown(*pa, 8)) : 0;
}

void
Runner::store64(Addr va, uint64_t value)
{
    accessChecked(va, AccessType::Store);
    auto pa = as_->pageTable().translate(va);
    if (pa)
        machine_.mem().write64(alignDown(*pa, 8), value);
}

void
Runner::runBatch(std::span<const AccessRequest> reqs)
{
    if (machine_.streamOpen()) {
        for (const AccessRequest &req : reqs)
            accessChecked(req.va, req.type);
        return;
    }
    if (trace_) {
        for (const AccessRequest &req : reqs)
            trace_->append(req.va, req.type);
    }

    std::span<const AccessRequest> rest = reqs;
    while (!rest.empty()) {
        const BatchOutcome out =
            machine_.accessBatch(rest, &model_, /*stop_on_fault=*/true);
        if (out.firstFault == Fault::None)
            break;

        // The faulting request is the last one the batch consumed:
        // service it exactly as the per-access path does, then resume.
        const AccessRequest &req = rest[out.completed - 1];
        serviceFault(req.va, req.type, out.firstFault);
        rest = rest.subspan(out.completed);
    }
}

namespace
{

std::vector<AccessRequest>
streamRequests(Addr va, uint64_t len, AccessType type)
{
    std::vector<AccessRequest> reqs;
    const Addr start = alignDown(va, 64);
    reqs.reserve((va + len - start + 63) / 64);
    for (Addr a = start; a < va + len; a += 64)
        reqs.push_back({a, type});
    return reqs;
}

} // namespace

void
Runner::streamRead(Addr va, uint64_t len)
{
    runBatch(streamRequests(va, len, AccessType::Load));
}

void
Runner::streamWrite(Addr va, uint64_t len)
{
    runBatch(streamRequests(va, len, AccessType::Store));
}

} // namespace hpmp

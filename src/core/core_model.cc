#include "core/core_model.h"

#include "base/logging.h"

namespace hpmp
{

CoreModel::CoreModel(const MachineParams &params)
    : timing_(params.timing),
      l1HitCycles_(params.hier.l1d.latency)
{
}

uint64_t
CoreModel::cycles() const
{
    panic_if(streamed_, "CoreModel::cycles() with a timing stream open");
    const double base =
        (instructions_ + memAccesses_) * timing_.baseCpi;
    return static_cast<uint64_t>(base + exposedStall_);
}

double
CoreModel::seconds() const
{
    panic_if(streamed_, "CoreModel::seconds() with a timing stream open");
    return cycles() / (timing_.freqGHz * 1e9);
}

void
CoreModel::reset()
{
    panic_if(streamed_, "CoreModel::reset() with a timing stream open");
    instructions_ = 0;
    memAccesses_ = 0;
    exposedStall_ = 0.0;
}

} // namespace hpmp

#include "core/core_model.h"

namespace hpmp
{

CoreModel::CoreModel(const MachineParams &params)
    : timing_(params.timing),
      l1HitCycles_(params.hier.l1d.latency)
{
}

void
CoreModel::addStallCycles(uint64_t cycles, bool walk)
{
    ++memAccesses_;
    const uint64_t stall = cycles > l1HitCycles_ ? cycles - l1HitCycles_ : 0;
    exposedStall_ += stall * (walk ? timing_.walkOverlap
                                   : timing_.memOverlap);
}

uint64_t
CoreModel::cycles() const
{
    const double base =
        (instructions_ + memAccesses_) * timing_.baseCpi;
    return static_cast<uint64_t>(base + exposedStall_);
}

double
CoreModel::seconds() const
{
    return cycles() / (timing_.freqGHz * 1e9);
}

void
CoreModel::reset()
{
    instructions_ = 0;
    memAccesses_ = 0;
    exposedStall_ = 0.0;
}

} // namespace hpmp

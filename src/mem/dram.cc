#include "mem/dram.h"

#include "base/bitfield.h"
#include "base/logging.h"

namespace hpmp
{

Dram::Dram(const DramParams &params)
    : params_(params),
      rowShift_(log2i(params.rowBytes)),
      bankShift_(log2i(params.numBanks)),
      bankMask_(params.numBanks - 1),
      openRow_(params.numBanks, -1)
{
    fatal_if(!isPowerOf2(params.rowBytes), "DRAM row size must be 2^n");
    fatal_if(!isPowerOf2(params.numBanks), "DRAM bank count must be 2^n");
}

unsigned
Dram::access(Addr pa)
{
    // Row index within the whole device, bank-interleaved at row
    // granularity so that adjacent rows map to different banks.
    const uint64_t row_global = pa >> rowShift_;
    const uint64_t bank = row_global & bankMask_;
    const auto row = static_cast<int64_t>(row_global >> bankShift_);

    if (openRow_[bank] == row) {
        ++rowHits_;
        return params_.rowHitCycles;
    }
    openRow_[bank] = row;
    ++rowMisses_;
    return params_.rowMissCycles;
}

void
Dram::precharge()
{
    for (auto &row : openRow_)
        row = -1;
}

} // namespace hpmp

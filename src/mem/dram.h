/**
 * @file
 * Open-page DRAM timing model.
 *
 * Approximates the FR-FCFS DDR3 configuration of Table 1 with a
 * per-bank row-buffer: a reference to the open row pays CAS only; a
 * different row pays precharge + activate + CAS. Latencies are given
 * in core cycles by the enclosing core model (1 GHz Rocket vs. 3.2 GHz
 * BOOM see different cycle counts for the same wall-clock DRAM).
 */

#ifndef HPMP_MEM_DRAM_H
#define HPMP_MEM_DRAM_H

#include <cstdint>
#include <vector>

#include "base/addr.h"
#include "base/stats.h"

namespace hpmp
{

/** Timing/geometry parameters of the DRAM model. */
struct DramParams
{
    unsigned numBanks = 8 * 4;       //!< 8 banks x quad rank (Table 1); 2^n
    unsigned rowBytes = 8192;        //!< row-buffer size per bank; 2^n
    unsigned rowHitCycles = 42;      //!< CAS-limited access
    unsigned rowMissCycles = 84;     //!< precharge + activate + CAS
};

/** Per-bank open-row DRAM latency model. */
class Dram
{
  public:
    explicit Dram(const DramParams &params);

    /** Latency in core cycles for a line fill at pa. */
    unsigned access(Addr pa);

    /** Close all row buffers (cold state). */
    void precharge();

    uint64_t rowHits() const { return rowHits_.value(); }
    uint64_t rowMisses() const { return rowMisses_.value(); }
    void resetStats() { rowHits_.reset(); rowMisses_.reset(); }

    const DramParams &params() const { return params_; }

  private:
    DramParams params_;
    // Row/bank split by shift and mask: the constructor rejects a
    // rowBytes or numBanks that is not a power of two.
    unsigned rowShift_;
    unsigned bankShift_;
    uint64_t bankMask_;
    std::vector<int64_t> openRow_; //!< -1 = closed

    Counter rowHits_;
    Counter rowMisses_;
};

} // namespace hpmp

#endif // HPMP_MEM_DRAM_H

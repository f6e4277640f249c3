/**
 * @file
 * Application-level core timing model.
 *
 * Aggregates instruction counts and memory-access outcomes into total
 * cycles. The in-order Rocket exposes every stall cycle; the BOOM
 * model hides part of data-miss latency behind out-of-order execution
 * but exposes most of the (serially dependent) page/permission-walk
 * latency — the asymmetry that makes extra-dimensional walks hurt
 * more on BOOM in relative terms (paper §8).
 */

#ifndef HPMP_CORE_CORE_MODEL_H
#define HPMP_CORE_CORE_MODEL_H

#include "core/machine.h"

namespace hpmp
{

/** Cycle aggregator for one simulated workload run. */
class CoreModel
{
  public:
    explicit CoreModel(const MachineParams &params);

    /** Account n non-memory instructions. */
    void addInstructions(uint64_t n) { instructions_ += n; }

    /** Account one memory access performed on the Machine. */
    void
    addAccess(const AccessOutcome &outcome)
    {
        addAccess(outcome.cycles, outcome.tlbHit);
    }

    /** Account one memory access of `cycles`, a TLB hit or a walk. */
    void
    addAccess(uint64_t cycles, bool tlb_hit)
    {
        ++memAccesses_;
        // The L1-hit portion of the access is covered by the base CPI;
        // anything beyond it is stall, scaled by how much of it the
        // core can hide. Walk-induced stalls (TLB miss) are serially
        // dependent and harder to hide than plain data misses.
        const uint64_t stall = cycles > l1HitCycles_ ? cycles - l1HitCycles_
                                                     : 0;
        const double overlap =
            tlb_hit ? timing_.memOverlap : timing_.walkOverlap;
        exposedStall_ += stall * overlap;
    }

    uint64_t instructions() const { return instructions_; }
    uint64_t memAccesses() const { return memAccesses_; }

    /** Total cycles: base CPI work plus exposed stall cycles. Not
     *  while a timing stream charges this model. */
    uint64_t cycles() const;

    /** Wall-clock seconds at the core's frequency. */
    double seconds() const;

    void reset();

  private:
    friend class Machine::TimingStream;

    // While a Machine::TimingStream charges this model its helper
    // thread runs addAccess() and the caller's thread runs
    // addInstructions(): what the helper only reads, what the caller
    // writes and what the helper writes each sit on a cache line of
    // their own (DESIGN.md §5).
    alignas(64) CoreTimingParams timing_;
    unsigned l1HitCycles_;
    /** A timing stream charges this model: set by the caller's thread
     *  as the stream opens, cleared once its helper is joined. The
     *  helper never reads it. */
    bool streamed_ = false;
    alignas(64) uint64_t instructions_ = 0;
    alignas(64) uint64_t memAccesses_ = 0;
    double exposedStall_ = 0.0; //!< summed in request order
};

} // namespace hpmp

#endif // HPMP_CORE_CORE_MODEL_H

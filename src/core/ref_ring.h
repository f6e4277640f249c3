/**
 * @file
 * The hand-off of a timing stream's split schedule (DESIGN.md §5).
 *
 * On the split schedule the caller's thread translates and checks
 * every request and a helper thread times the physical references it
 * makes. RefRing carries them across in request order: one slot per
 * timed reference (its 64-byte line, fetch flag and RefOrigin) and one
 * slot at the end of each request (the cycles the caller charged
 * itself, and the TLB-hit flag). A TLB hit that charged itself nothing
 * makes one reference, its data reference, and ends there, so that
 * slot carries the end too and the request takes one slot, not two.
 * The ring is fixed-size and reused by every timing stream of its
 * machine, so its footprint does not grow with stream length; a full
 * ring makes the producer wait.
 *
 * One producer (the caller) and one consumer (the helper). The
 * producer publishes its slots in chunks, the consumer returns the
 * space it has drained; both indices are atomics on their own cache
 * lines, and everything else is touched by one side only. A consumer
 * that finds nothing new spins briefly, then sleeps on the published
 * index until the producer publishes again or closes the ring.
 */

#ifndef HPMP_CORE_REF_RING_H
#define HPMP_CORE_REF_RING_H

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>

#include "base/addr.h"
#include "base/attribution.h"

namespace hpmp
{

class RefRing
{
  public:
    /** Capacity in slots: 64 KiB of ring per machine that splits. */
    static constexpr uint64_t kSlots = 8192;

    /**
     * Slots the producer writes before it publishes them. Publishing
     * moves a cache line between the two cores and may wake the
     * consumer, so it is amortised over many slots; a multiple of it
     * divides kSlots.
     */
    static constexpr uint64_t kPublishEvery = 1024;

    // ---- slot encoding: low 6 bits tag, the rest payload ------------
    //
    // bit 0: fetch flag (reference) or TLB-hit flag (end of request);
    // bits 1-5: the RefOrigin, kHitDataTag or kEndTag;
    // bits 6-63: the line address (reference) or the caller-side
    // cycles (end of request). Cache and Dram read no address bit
    // below the 64-byte line, so the reference keeps all they use.

    static uint64_t
    refSlot(Addr pa, bool fetch, RefOrigin origin)
    {
        return (pa & ~kTagMask) | uint64_t(origin) << 1 | uint64_t(fetch);
    }

    /** The data reference of a TLB hit, which also ends its request. */
    static uint64_t
    hitDataSlot(Addr pa, bool fetch)
    {
        return (pa & ~kTagMask) | kHitDataTag << 1 | uint64_t(fetch);
    }

    static uint64_t
    endSlot(uint64_t cycles, bool tlb_hit)
    {
        return cycles << 6 | kEndTag << 1 | uint64_t(tlb_hit);
    }

    static bool isEnd(uint64_t slot) { return tagOf(slot) == kEndTag; }
    static bool isHitData(uint64_t slot) { return tagOf(slot) == kHitDataTag; }
    static Addr lineOf(uint64_t slot) { return slot & ~kTagMask; }
    static RefOrigin originOf(uint64_t slot) { return RefOrigin(tagOf(slot)); }
    static bool flagOf(uint64_t slot) { return slot & 1; }
    static uint64_t cyclesOf(uint64_t slot) { return slot >> 6; }

    // ---- producer ---------------------------------------------------

    /** Empty the ring for a new stream, before its consumer starts. */
    void
    reset()
    {
        tail_ = 0;
        headSeen_ = 0;
        published_.store(0, std::memory_order_relaxed);
        consumed_.store(0, std::memory_order_relaxed);
        sleeping_.store(false, std::memory_order_relaxed);
    }

    void
    push(uint64_t slot)
    {
        if (tail_ - headSeen_ == kSlots) [[unlikely]]
            waitForSpace();
        slots_[tail_ % kSlots] = slot;
        if (++tail_ % kPublishEvery == 0)
            publish(tail_);
    }

    /** Publish every slot pushed and tell the consumer no more come. */
    void close() { publish(tail_ | kClosed); }

    // ---- consumer ---------------------------------------------------

    /** Hand every slot to `fn` in push order until the ring is closed. */
    template <typename Fn>
    void
    drain(Fn &&fn)
    {
        uint64_t head = 0;
        unsigned idle = 0;
        for (;;) {
            const uint64_t word = published_.load(std::memory_order_acquire);
            const uint64_t avail = word & ~kClosed;
            if (avail == head) {
                if (word & kClosed)
                    return;
                if (++idle < kSpinPauses) {
                    pause();
                    continue;
                }
                // Sleep until published_ moves. sleeping_ and
                // published_ are each stored by one side and loaded by
                // the other, all seq_cst: either publish() sees
                // sleeping_ and wakes this, or this sees its word.
                sleeping_.store(true, std::memory_order_seq_cst);
                if (published_.load(std::memory_order_seq_cst) == word)
                    published_.wait(word, std::memory_order_acquire);
                sleeping_.store(false, std::memory_order_relaxed);
                idle = 0;
                continue;
            }
            idle = 0;
            for (; head != avail; ++head)
                fn(slots_[head % kSlots]);
            consumed_.store(head, std::memory_order_release);
        }
    }

  private:
    static constexpr uint64_t kTagMask = 63;
    /** Tags past every RefOrigin. */
    static constexpr uint64_t kHitDataTag = 30;
    static constexpr uint64_t kEndTag = 31;
    static_assert(unsigned(RefOrigin::NumOrigins) < kHitDataTag);
    static_assert(kSlots % kPublishEvery == 0);
    /** Set in published_ by close(): no more slots come. */
    static constexpr uint64_t kClosed = uint64_t(1) << 63;
    /**
     * Empty polls before either side stops spinning, about 3-4 us of
     * PAUSEs on the x86 host of EXPERIMENTS.md "Decoupled batch
     * timing": the consumer then sleeps, the producer yields.
     */
    static constexpr unsigned kSpinPauses = 128;

    static uint64_t tagOf(uint64_t slot) { return slot >> 1 & 31; }

    static void
    pause()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }

    void
    publish(uint64_t word)
    {
        published_.store(word, std::memory_order_seq_cst);
        if (sleeping_.load(std::memory_order_seq_cst))
            published_.notify_one();
    }

    void
    waitForSpace()
    {
        // The consumer can only drain what is published.
        publish(tail_);
        unsigned idle = 0;
        while ((headSeen_ = consumed_.load(std::memory_order_acquire)) +
                   kSlots == tail_) {
            if (++idle < kSpinPauses)
                pause();
            else
                std::this_thread::yield();
        }
    }

    std::array<uint64_t, kSlots> slots_{};
    // Producer-only, on a line of their own.
    alignas(64) uint64_t tail_ = 0; //!< slots pushed
    uint64_t headSeen_ = 0; //!< last consumed_ the producer read
    /** Slots published, with kClosed once the producer is done. */
    alignas(64) std::atomic<uint64_t> published_{0};
    alignas(64) std::atomic<uint64_t> consumed_{0};
    alignas(64) std::atomic<bool> sleeping_{false};
};

} // namespace hpmp

#endif // HPMP_CORE_REF_RING_H

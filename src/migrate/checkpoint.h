/**
 * @file
 * Whole-domain migration checkpoint (DESIGN.md §12).
 *
 * A checkpoint is everything the destination host needs to re-create
 * a suspended domain bit-identically:
 *
 *  - the GMS list (base/size/perm/label) — this *is* the domain's
 *    pmpt state: the destination monitor rebuilds its PMP Table from
 *    it with addGms, because table frames live in each monitor's own
 *    private region and raw table words would not relocate;
 *  - the raw bytes of every GMS region. Guest PT/GPT/NPT pages live
 *    inside the domain's own memory, so page tables travel implicitly
 *    and stay valid: regions keep their physical addresses on the
 *    destination (identity placement);
 *  - per-hart vCPU translation context (satp/vsatp/hgatp + privilege)
 *    captured by SmpSystem::extractHartContext;
 *  - the source monitor's measurement and signed attestation report
 *    over it, which the destination re-derives independently after
 *    the stream lands (verify-digest before commit).
 *
 * Capture is all-or-nothing: the migrate.checkpoint_torn fault site
 * models a crash mid-capture, and any failure surfaces as a typed
 * error string so the engine aborts before the source gives anything
 * up.
 */

#ifndef HPMP_MIGRATE_CHECKPOINT_H
#define HPMP_MIGRATE_CHECKPOINT_H

#include <string>
#include <vector>

#include "core/smp.h"
#include "monitor/secure_monitor.h"

namespace hpmp
{

/** One GMS as it travels in a checkpoint. */
struct GmsImage
{
    Addr base = 0;
    uint64_t size = 0;
    Perm perm;
    GmsLabel label = GmsLabel::Slow;
};

/** A captured domain, ready for streaming. */
struct DomainCheckpoint
{
    DomainId sourceId = 0;
    uint64_t nonce = 0;
    MerkleHash measurement = 0;
    AttestationReport report;
    /**
     * Causal-trace context of the migration driving this checkpoint
     * (DESIGN.md §13): the trace id and root span travel inside the
     * image, so the destination's stage/verify spans join the
     * source's trace tree. Zero when tracing is off.
     */
    uint64_t traceId = 0;
    uint64_t traceSpan = 0;
    std::vector<GmsImage> regions;
    /** Concatenated raw bytes of every region, in list order. */
    std::vector<uint8_t> memory;
    /** Translation context of every source hart, hart 0 first. */
    std::vector<HartContext> harts;
};

/**
 * Capture a suspended domain on the source host. The domain must
 * already be suspended (suspendDomain) and must not be running on any
 * hart — capture reads memory and registers without stopping anyone.
 * @return empty string on success, the failure reason otherwise.
 */
std::string captureCheckpoint(SecureMonitor &src, DomainId id,
                              uint64_t nonce, DomainCheckpoint &out);

/** Encode a checkpoint as one flat byte image. */
std::vector<uint8_t> serializeCheckpoint(const DomainCheckpoint &cp);

/**
 * Decode a received image. Fully bounds-checked: truncated, oversized
 * or internally inconsistent images fail cleanly.
 * @return true iff the image decoded completely.
 */
bool deserializeCheckpoint(const std::vector<uint8_t> &bytes,
                           DomainCheckpoint &out);

} // namespace hpmp

#endif // HPMP_MIGRATE_CHECKPOINT_H

#include "migrate/migration.h"

#include <algorithm>

#include "base/fault_inject.h"
#include "base/logging.h"
#include "base/trace.h"
#include "mem/phys_mem.h"

namespace hpmp
{

const char *
toString(MigratePhase phase)
{
    switch (phase) {
      case MigratePhase::Idle: return "idle";
      case MigratePhase::Quiesce: return "quiesce";
      case MigratePhase::Checkpoint: return "checkpoint";
      case MigratePhase::Transfer: return "transfer";
      case MigratePhase::Stage: return "stage";
      case MigratePhase::Verify: return "verify";
      case MigratePhase::Ack: return "ack";
      case MigratePhase::Commit: return "commit";
      case MigratePhase::Resume: return "resume";
      case MigratePhase::Done: return "done";
    }
    return "?";
}

/** Per-migration working state. */
struct MigrationEngine::Attempt
{
    DomainId srcId = 0;
    uint64_t nonce = 0;
    MigrateResult res;
    bool srcSuspended = false; //!< suspendDomain committed on the source
    bool destStaged = false;   //!< createDomain ran on the destination
    uint64_t phaseCycles = 0;  //!< current phase's cycle accumulator
    // Channel counter baselines (the channel is engine-lifetime).
    uint64_t chSent = 0, chDropped = 0, chDuped = 0, chCorrupted = 0;

    // Causal-trace state (DESIGN.md §13): one root span per attempt,
    // one child span per phase, previous track id restored on exit.
    SpanId rootSpan = 0;
    SpanId phaseSpan = 0;
    TraceContext rootCtx;
    uint32_t prevPid = 0;

    void
    beginPhase(const char *name, uint64_t a0 = 0)
    {
        endPhase();
        phaseSpan = Tracer::instance().spans().beginSpan(
            TraceFlag::Monitor, name, a0);
    }

    void
    endPhase(uint64_t a0 = 0)
    {
        if (phaseSpan) {
            Tracer::instance().spans().endSpan(phaseSpan, a0);
            phaseSpan = 0;
        }
    }

    /** Close root + phase spans and restore the caller's track id. */
    void
    closeSpans(MigratePhase outcome)
    {
        endPhase();
        SpanTracker &spans = Tracer::instance().spans();
        spans.endSpan(rootSpan, uint64_t(outcome));
        rootSpan = 0;
        spans.setSystem(prevPid);
    }
};

MigrationEngine::MigrationEngine(SecureMonitor &src, SecureMonitor &dst,
                                 const MigrateConfig &config,
                                 const std::string &stat_prefix)
    : src_(src), dst_(dst), config_(config), stats_(stat_prefix)
{
    stats_.add("migrations", &statMigrations_);
    stats_.add("commits", &statCommits_);
    stats_.add("aborts", &statAborts_);
    stats_.add("stranded", &statStranded_);
    stats_.add("bytes", &statBytes_);
    stats_.add("frame_retries", &statFrameRetries_);
    stats_.add("acks_lost", &statAcksLost_);
    stats_.add("commit_retries", &statCommitRetries_);
    stats_.add("frames_sent", &statFramesSent_);
    stats_.add("frames_dropped", &statFramesDropped_);
    stats_.add("frames_duplicated", &statFramesDuplicated_);
    stats_.add("frames_corrupted", &statFramesCorrupted_);
    stats_.add("frames_beyond_window", &statFramesBeyondWindow_);
    stats_.add("phase_quiesce_cycles", &statQuiesceCycles_);
    stats_.add("phase_checkpoint_cycles", &statCheckpointCycles_);
    stats_.add("phase_transfer_cycles", &statTransferCycles_);
    stats_.add("phase_stage_cycles", &statStageCycles_);
    stats_.add("phase_verify_cycles", &statVerifyCycles_);
    stats_.add("phase_commit_cycles", &statCommitCycles_);
    stats_.add("total_cycles", &statTotalCycles_);
}

void
MigrationEngine::oracleStep(const char *where)
{
    if (oracle_)
        oracle_->step(where);
}

bool
MigrationEngine::transferImage(Attempt &at,
                               const std::vector<uint8_t> &image,
                               std::vector<uint8_t> &received)
{
    const uint64_t total =
        (image.size() + config_.frameBytes - 1) / config_.frameBytes;
    std::vector<std::vector<uint8_t>> got(static_cast<size_t>(total));
    // Receive-side dedup is a bounded sliding window, not a
    // remembers-everything bitmap: the dedup state stays
    // O(recvWindowFrames) no matter what totalFrames claims, and a
    // frame beyond the window is discarded unrecorded (fail closed —
    // the in-order sender never legitimately runs that far ahead).
    SeqWindow window(config_.recvWindowFrames);

    for (uint64_t i = 0; i < total; ++i) {
        MsgFrame frame;
        frame.seq = i;
        frame.totalFrames = total;
        const uint64_t off = i * config_.frameBytes;
        const uint64_t len =
            std::min<uint64_t>(config_.frameBytes, image.size() - off);
        frame.payload.assign(image.begin() + ptrdiff_t(off),
                             image.begin() + ptrdiff_t(off + len));

        bool landed = false;
        for (unsigned attempt = 0; attempt <= config_.maxRetries;
             ++attempt) {
            channel_.send(frame);
            at.phaseCycles += config_.cyclesPerFrame;
            // Drain the wire. Receivers dedup by seq and discard
            // frames failing the end-to-end checksum — a corrupted
            // frame is handled exactly like a dropped one: the
            // sender's bounded-retry loop re-sends it.
            MsgFrame rx;
            while (channel_.recv(rx)) {
                if (!MsgChannel::valid(rx))
                    continue;
                if (rx.seq >= total)
                    continue;
                switch (window.accept(rx.seq)) {
                  case SeqWindow::Verdict::Accept:
                    got[size_t(rx.seq)] = std::move(rx.payload);
                    break;
                  case SeqWindow::Verdict::Duplicate:
                    break;
                  case SeqWindow::Verdict::BeyondWindow:
                    ++statFramesBeyondWindow_;
                    break;
                }
            }
            if (window.seen(i)) {
                landed = true;
                break;
            }
            ++at.res.retries;
            ++statFrameRetries_;
            at.phaseCycles += config_.backoffCycles << attempt;
            if (at.phaseCycles > config_.phaseTimeoutCycles)
                return false;
        }
        if (!landed)
            return false;
        oracleStep("transfer");
    }

    received.clear();
    received.reserve(image.size());
    for (auto &chunk : got)
        received.insert(received.end(), chunk.begin(), chunk.end());
    return true;
}

bool
MigrationEngine::deliverControl(Attempt &at, const char *fault_site,
                                Counter &lost_counter)
{
    for (unsigned attempt = 0; attempt <= config_.maxRetries; ++attempt) {
        at.phaseCycles += config_.cyclesPerFrame;
        if (!FAULT_POINT(fault_site))
            return true;
        ++lost_counter;
        ++at.res.retries;
        at.phaseCycles += config_.backoffCycles << attempt;
        if (at.phaseCycles > config_.phaseTimeoutCycles)
            return false;
    }
    return false;
}

MigrateResult
MigrationEngine::abort(Attempt &at, MigratePhase phase, MonitorError code,
                       std::string why)
{
    panic_if(at.res.committed, "abort after the commit point");
    ++statAborts_;
    at.res.ok = false;
    at.res.failedPhase = phase;
    at.res.code = code;
    at.res.error = std::move(why);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase();
    SpanTracker &spans = Tracer::instance().spans();

    // Tear the staged destination copy down first, then resume the
    // source: at no point in that order does a second host grant the
    // domain. Rollback calls are retried — a campaign's injected
    // fault can fail them once, never forever (plans are one-shot).
    if (at.destStaged) {
        spans.setSystem(config_.destSystemId);
        for (unsigned attempt = 0; attempt < 8; ++attempt) {
            if (dst_.destroyDomain(at.res.destId).ok)
                break;
        }
    }
    if (at.srcSuspended) {
        spans.setSystem(config_.sourceSystemId);
        for (unsigned attempt = 0; attempt < 8; ++attempt) {
            if (src_.resumeDomain(at.srcId).ok)
                break;
        }
    }
    at.res.sourcePostDigest = src_.stateDigest();
    oracleStep("abort");
    if (oracle_)
        oracle_->finishMigration();
    channel_.clearQueue();
    statFramesSent_ += channel_.framesSent() - at.chSent;
    statFramesDropped_ += channel_.framesDropped() - at.chDropped;
    statFramesDuplicated_ += channel_.framesDuplicated() - at.chDuped;
    statFramesCorrupted_ += channel_.framesCorrupted() - at.chCorrupted;
    statTotalCycles_.sample(at.res.cycles);
    at.closeSpans(at.res.failedPhase);
    return at.res;
}

MigrateResult
MigrationEngine::finish(Attempt &at)
{
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    if (oracle_)
        oracle_->finishMigration();
    channel_.clearQueue();
    statFramesSent_ += channel_.framesSent() - at.chSent;
    statFramesDropped_ += channel_.framesDropped() - at.chDropped;
    statFramesDuplicated_ += channel_.framesDuplicated() - at.chDuped;
    statFramesCorrupted_ += channel_.framesCorrupted() - at.chCorrupted;
    statTotalCycles_.sample(at.res.cycles);
    at.closeSpans(at.res.ok ? MigratePhase::Done : at.res.failedPhase);
    return at.res;
}

MigrateResult
MigrationEngine::migrate(DomainId id, uint64_t nonce)
{
    Attempt at;
    at.srcId = id;
    at.nonce = nonce;
    at.chSent = channel_.framesSent();
    at.chDropped = channel_.framesDropped();
    at.chDuped = channel_.framesDuplicated();
    at.chCorrupted = channel_.framesCorrupted();
    ++statMigrations_;

    // Root span for the whole attempt; its TraceContext is serialized
    // into the checkpoint so destination-side spans join this tree.
    SpanTracker &spans = Tracer::instance().spans();
    at.prevPid = spans.system();
    spans.setSystem(config_.sourceSystemId);
    at.rootSpan =
        spans.beginSpan(TraceFlag::Monitor, "migrate", id, nonce);
    at.rootCtx = spans.context();

    // ---- Quiesce: switch away, baseline digest, revoke -------------
    at.beginPhase("migrate.quiesce", id);
    // The rollback baseline is captured with the domain *not* running
    // on the source: switching away is part of quiesce, not something
    // an abort must undo.
    if (src_.currentDomain() == id) {
        const uint64_t before = src_.stateDigest();
        const MonitorResult sw = src_.switchTo(0);
        if (!sw.ok) {
            at.res.sourcePreDigest = before;
            return abort(at, MigratePhase::Quiesce, sw.code,
                         "quiesce switch failed: " + sw.error);
        }
        at.phaseCycles += sw.cycles;
    }
    at.res.sourcePreDigest = src_.stateDigest();
    const MonitorResult sus = src_.suspendDomain(id);
    if (!sus.ok) {
        return abort(at, MigratePhase::Quiesce, sus.code,
                     "suspend failed: " + sus.error);
    }
    at.srcSuspended = true;
    at.phaseCycles += sus.cycles;
    if (oracle_)
        oracle_->beginMigration(id, src_.gmsOf(id));
    oracleStep("quiesce");
    statQuiesceCycles_.sample(at.phaseCycles);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase();

    // ---- Checkpoint -------------------------------------------------
    at.beginPhase("migrate.checkpoint", id);
    DomainCheckpoint cp;
    const std::string cap_err = captureCheckpoint(src_, id, nonce, cp);
    if (!cap_err.empty()) {
        return abort(at, MigratePhase::Checkpoint, MonitorError::None,
                     "checkpoint failed: " + cap_err);
    }
    at.phaseCycles += cp.memory.size() / 8; // modelled copy+measure cost
    // The trace context travels inside the image (literally over the
    // MsgChannel): the destination reads it back out after Transfer.
    cp.traceId = at.rootCtx.traceId;
    cp.traceSpan = at.rootCtx.span;
    oracleStep("checkpoint");
    statCheckpointCycles_.sample(at.phaseCycles);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase();

    // ---- Transfer ---------------------------------------------------
    at.beginPhase("migrate.transfer", id);
    const std::vector<uint8_t> image = serializeCheckpoint(cp);
    at.res.bytes = image.size();
    statBytes_ += image.size();
    std::vector<uint8_t> received;
    if (!transferImage(at, image, received)) {
        return abort(at, MigratePhase::Transfer, MonitorError::None,
                     "transfer failed: frame retries/timeout exhausted");
    }
    statTransferCycles_.sample(at.phaseCycles);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase(image.size());

    // ---- Stage: re-create the domain, suspended --------------------
    DomainCheckpoint rcp;
    if (!deserializeCheckpoint(received, rcp)) {
        return abort(at, MigratePhase::Stage, MonitorError::None,
                     "malformed checkpoint image on the destination");
    }
    // Destination side: adopt the context recovered from the image —
    // not the live one — so the stage/verify spans provably descend
    // from the trace id that crossed the wire, on the dest track.
    spans.setSystem(config_.destSystemId);
    spans.setContext(TraceContext{rcp.traceId, rcp.traceSpan});
    at.beginPhase("migrate.stage", rcp.sourceId);
    at.res.destId = dst_.createDomain();
    at.destStaged = true;
    for (const GmsImage &r : rcp.regions) {
        Gms gms;
        gms.base = r.base;
        gms.size = r.size;
        gms.perm = r.perm;
        gms.label = r.label;
        const MonitorResult ar = dst_.addGms(at.res.destId, gms);
        if (!ar.ok) {
            return abort(at, MigratePhase::Stage, ar.code,
                         "destination addGms failed: " + ar.error);
        }
        at.phaseCycles += ar.cycles;
    }
    // Identity placement: regions keep their physical addresses, so
    // the PT/GPT/NPT roots inside the image stay valid as-is.
    PhysMem &dmem = dst_.machine().mem();
    uint64_t moff = 0;
    for (const GmsImage &r : rcp.regions) {
        dmem.writeBytes(r.base, rcp.memory.data() + moff, r.size);
        moff += r.size;
    }
    at.phaseCycles += rcp.memory.size() / 8;
    // Staged, not grantable: the domain only becomes runnable on the
    // destination once COMMIT lands (resumeDomain below).
    const MonitorResult ss = dst_.suspendDomain(at.res.destId);
    if (!ss.ok) {
        return abort(at, MigratePhase::Stage, ss.code,
                     "destination stage-suspend failed: " + ss.error);
    }
    at.phaseCycles += ss.cycles;
    if (oracle_)
        oracle_->setDestDomain(at.res.destId);
    oracleStep("stage");
    statStageCycles_.sample(at.phaseCycles);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase(at.res.destId);

    // ---- Verify: independent re-measure + re-attest ----------------
    at.beginPhase("migrate.verify", at.res.destId);
    if (FAULT_POINT("migrate.dest_attest")) {
        return abort(at, MigratePhase::Verify, MonitorError::InjectedFault,
                     "injected destination attestation failure");
    }
    if (rcp.report.measurement != rcp.measurement ||
        !src_.attestor().verify(rcp.report, nonce)) {
        return abort(at, MigratePhase::Verify, MonitorError::None,
                     "source attestation report failed verification");
    }
    const MonitorValue<MerkleHash> meas = dst_.measureDomain(at.res.destId);
    if (!meas.ok) {
        return abort(at, MigratePhase::Verify, meas.code,
                     "destination re-measure failed: " + meas.error);
    }
    if (meas.value != rcp.measurement) {
        return abort(at, MigratePhase::Verify, MonitorError::None,
                     "measurement mismatch after transfer");
    }
    const MonitorValue<AttestationReport> drep =
        dst_.attestDomain(at.res.destId, nonce);
    if (!drep.ok || !dst_.attestor().verify(drep.value, nonce)) {
        return abort(at, MigratePhase::Verify,
                     drep.ok ? MonitorError::None : drep.code,
                     "destination re-attestation failed" +
                         (drep.ok ? std::string()
                                  : ": " + drep.error));
    }
    at.phaseCycles += rcp.memory.size() / 8; // modelled re-measure cost
    oracleStep("verify");
    statVerifyCycles_.sample(at.phaseCycles);
    at.res.cycles += at.phaseCycles;
    at.phaseCycles = 0;
    at.endPhase();

    // ---- Ack: PREPARED dest -> source ------------------------------
    spans.setSystem(config_.sourceSystemId);
    at.beginPhase("migrate.ack", id);
    if (!deliverControl(at, "migrate.ack_lost", statAcksLost_)) {
        return abort(at, MigratePhase::Ack, MonitorError::None,
                     "PREPARED ack lost after retries; "
                     "destination never commits");
    }
    oracleStep("ack");
    at.endPhase();

    // ---- Commit: the point of no return ----------------------------
    at.beginPhase("migrate.commit", id);
    const MonitorResult dr = src_.destroyDomain(id);
    if (!dr.ok) {
        // The source copy is intact; this is still a clean abort.
        return abort(at, MigratePhase::Commit, dr.code,
                     "source destroy failed: " + dr.error);
    }
    at.srcSuspended = false; // gone, nothing left to resume
    at.res.committed = true;
    at.phaseCycles += dr.cycles;
    oracleStep("commit-destroy");

    if (!deliverControl(at, "migrate.commit_crash", statCommitRetries_)) {
        // Crash during commit: the source is gone and the destination
        // never heard COMMIT. The domain sits staged (suspended) on
        // the destination — granted nowhere, never granted twice —
        // until an operator resumes it. Failed, but crash-consistent.
        ++statStranded_;
        at.res.stranded = true;
        at.res.failedPhase = MigratePhase::Commit;
        at.res.error = "COMMIT lost after retries: "
                       "domain stranded staged on destination";
        oracleStep("stranded");
        return finish(at);
    }

    at.endPhase();

    // ---- Resume: destination activation ----------------------------
    spans.setSystem(config_.destSystemId);
    at.beginPhase("migrate.resume", at.res.destId);
    if (oracle_)
        oracle_->noteDestCommitted();
    bool activated = false;
    for (unsigned attempt = 0; attempt <= config_.maxRetries; ++attempt) {
        const MonitorResult rr = dst_.resumeDomain(at.res.destId);
        if (rr.ok) {
            at.phaseCycles += rr.cycles;
            activated = true;
            break;
        }
        ++at.res.retries;
    }
    if (!activated) {
        ++statStranded_;
        at.res.stranded = true;
        at.res.failedPhase = MigratePhase::Resume;
        at.res.error = "destination resume failed after retries: "
                       "domain stranded staged";
        oracleStep("stranded");
        return finish(at);
    }
    at.res.destActivated = true;
    oracleStep("resume");

    if (config_.resumeOnDest) {
        // Re-apply the captured vCPU contexts. satp goes through
        // setSatp and the virt state through setVsatp/setHgatp, so
        // every sibling is fenced and the harts arrive with cold
        // TLBs — the first guest access pays the full hgatp-switch
        // walk.
        SmpSystem &dsmp = dst_.smp();
        const unsigned n = std::min<unsigned>(
            dsmp.numHarts(), unsigned(rcp.harts.size()));
        for (unsigned h = 0; h < n; ++h) {
            HartContext ctx = rcp.harts[h];
            if (ctx.virt && !dsmp.virtEnabled())
                ctx.virt = false;
            dsmp.applyHartContext(h, ctx);
        }
        for (unsigned attempt = 0; attempt <= config_.maxRetries;
             ++attempt) {
            const MonitorResult sw = dst_.switchTo(at.res.destId);
            if (sw.ok) {
                at.phaseCycles += sw.cycles;
                at.res.destSwitched = true;
                break;
            }
            ++at.res.retries;
        }
    }
    oracleStep("post-resume");
    statCommitCycles_.sample(at.phaseCycles);
    ++statCommits_;
    at.res.ok = true;
    at.res.failedPhase = MigratePhase::Done;
    return finish(at);
}

} // namespace hpmp

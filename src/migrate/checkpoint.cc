#include "migrate/checkpoint.h"

#include "base/fault_inject.h"
#include "mem/phys_mem.h"
#include "migrate/serialize.h"

namespace hpmp
{

namespace
{

constexpr uint64_t kMagic = 0x48504d504d494731ULL; // "HPMPMIG1"
constexpr uint64_t kVersion = 1;

/** Serialized size of one GmsImage record (base, size, perm, label). */
constexpr uint64_t kRegionRecordBytes = 8 + 8 + 1 + 1;

/** Serialized size of one HartContext record. */
constexpr uint64_t kHartRecordBytes = 1 + 8 + 1 + 1 + 1 + 8 + 8 + 1;

} // namespace

std::string
captureCheckpoint(SecureMonitor &src, DomainId id, uint64_t nonce,
                  DomainCheckpoint &out)
{
    if (!src.domainMigrating(id))
        return "domain is not suspended for migration";
    // A crash mid-capture leaves a torn image behind; the engine must
    // abort and resume the source rather than stream half a domain.
    if (FAULT_POINT("migrate.checkpoint_torn"))
        return "injected torn checkpoint";

    out = DomainCheckpoint{};
    out.sourceId = id;
    out.nonce = nonce;

    PhysMem &mem = src.machine().mem();
    for (const Gms &gms : src.gmsOf(id)) {
        // Shared regions belong to a peer domain too: their ownership
        // cannot move with this domain, so migration refuses them
        // (the OS must revoke sharing first).
        if (gms.shared)
            return "domain has shared GMS regions";
        GmsImage img;
        img.base = gms.base;
        img.size = gms.size;
        img.perm = gms.perm;
        img.label = gms.label;
        out.regions.push_back(img);

        // An uncorrectable error surfacing mid-stream (armed by name
        // only — it creates damage the source must then contain).
        if (FAULT_POINT_NAMED("ras.poison_migrate"))
            mem.poisonLine(gms.base + gms.size / 2);
        // The capture read consumes poison: streaming a poisoned
        // frame would launder the error into the destination's
        // attested image, so the checkpoint fails closed instead.
        if (mem.isPoisoned(gms.base, gms.size)) {
            return "machine check: poisoned page in GMS [" +
                   std::to_string(gms.base) + ", +" +
                   std::to_string(gms.size) + ")";
        }

        const uint64_t off = out.memory.size();
        out.memory.resize(off + gms.size);
        mem.readBytes(gms.base, out.memory.data() + off, gms.size);
    }

    const MonitorValue<MerkleHash> meas = src.measureDomain(id);
    if (!meas.ok)
        return "measurement failed: " + meas.error;
    out.measurement = meas.value;

    const MonitorValue<AttestationReport> report =
        src.attestDomain(id, nonce);
    if (!report.ok)
        return "source attestation failed: " + report.error;
    out.report = report.value;

    const SmpSystem &smp = src.smp();
    for (unsigned h = 0; h < smp.numHarts(); ++h)
        out.harts.push_back(smp.extractHartContext(h));
    return "";
}

std::vector<uint8_t>
serializeCheckpoint(const DomainCheckpoint &cp)
{
    ByteWriter w;
    w.u64(kMagic);
    w.u64(kVersion);
    w.u64(cp.sourceId);
    w.u64(cp.nonce);
    w.u64(cp.measurement);
    w.u64(cp.report.measurement);
    w.u64(cp.report.nonce);
    w.u64(cp.report.signature);
    w.u64(cp.traceId);
    w.u64(cp.traceSpan);

    w.u64(cp.regions.size());
    for (const GmsImage &r : cp.regions) {
        w.u64(r.base);
        w.u64(r.size);
        w.u8(uint8_t(r.perm.r) | uint8_t(r.perm.w) << 1 |
             uint8_t(r.perm.x) << 2);
        w.u8(uint8_t(r.label));
    }

    w.u64(cp.memory.size());
    if (!cp.memory.empty())
        w.bytes(cp.memory.data(), cp.memory.size());

    w.u64(cp.harts.size());
    for (const HartContext &ctx : cp.harts) {
        w.u8(ctx.translationOn);
        w.u64(ctx.satpRoot);
        w.u8(uint8_t(ctx.pagingMode));
        w.u8(uint8_t(ctx.priv));
        w.u8(ctx.virt);
        w.u64(ctx.vsatpRoot);
        w.u64(ctx.hgatpRoot);
        w.u8(uint8_t(ctx.guestPriv));
    }
    return w.take();
}

bool
deserializeCheckpoint(const std::vector<uint8_t> &bytes,
                      DomainCheckpoint &out)
{
    out = DomainCheckpoint{};
    ByteReader r(bytes);
    if (r.u64() != kMagic || r.u64() != kVersion)
        return false;
    out.sourceId = DomainId(r.u64());
    out.nonce = r.u64();
    out.measurement = r.u64();
    out.report.measurement = r.u64();
    out.report.nonce = r.u64();
    out.report.signature = r.u64();
    out.traceId = r.u64();
    out.traceSpan = r.u64();

    // Every length field is attacker-controlled input: bound it by
    // what the image could physically hold before allocating.
    const uint64_t nregions = r.u64();
    if (nregions > r.remaining() / kRegionRecordBytes)
        return false;
    uint64_t region_bytes = 0;
    for (uint64_t i = 0; i < nregions; ++i) {
        GmsImage img;
        img.base = r.u64();
        img.size = r.u64();
        const uint8_t perm = r.u8();
        img.perm = {bool(perm & 1), bool(perm & 2), bool(perm & 4)};
        img.label = GmsLabel(r.u8() & 1);
        region_bytes += img.size;
        out.regions.push_back(img);
    }

    const uint64_t memlen = r.u64();
    if (memlen > r.remaining() || memlen != region_bytes)
        return false;
    out.memory.resize(size_t(memlen));
    if (memlen)
        r.bytes(out.memory.data(), memlen);

    const uint64_t nharts = r.u64();
    if (nharts > r.remaining() / kHartRecordBytes)
        return false;
    for (uint64_t h = 0; h < nharts; ++h) {
        HartContext ctx;
        ctx.translationOn = r.u8();
        ctx.satpRoot = r.u64();
        ctx.pagingMode = PagingMode(r.u8() % 3);
        ctx.priv = PrivMode(r.u8() % 3);
        ctx.virt = r.u8();
        ctx.vsatpRoot = r.u64();
        ctx.hgatpRoot = r.u64();
        ctx.guestPriv = PrivMode(r.u8() % 3);
        out.harts.push_back(ctx);
    }
    return r.ok() && r.remaining() == 0;
}

} // namespace hpmp

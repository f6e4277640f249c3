/**
 * @file
 * Enclave measurement and attestation (paper Fig. 7: "Enclave
 * Management"; Penglai's secure-boot / attestation chain).
 *
 * The monitor measures a domain's memory with Merkle-tree roots and
 * signs (measurement, nonce) with its device key. Symmetric
 * "signatures" stand in for the asymmetric crypto of a real chain —
 * the protocol shape and the measured-content semantics are what the
 * simulator reproduces.
 */

#ifndef HPMP_MONITOR_ATTESTATION_H
#define HPMP_MONITOR_ATTESTATION_H

#include "base/hash.h"
#include "monitor/merkle.h"

namespace hpmp
{

/** A signed attestation statement. */
struct AttestationReport
{
    MerkleHash measurement = 0;
    uint64_t nonce = 0;
    uint64_t signature = 0;
};

/** Monitor-held signing identity. */
class Attestor
{
  public:
    explicit Attestor(uint64_t device_key) : key_(device_key) {}

    /** Measure a physical region (Merkle root of its pages). */
    static MerkleHash
    measure(const PhysMem &mem, Addr base, uint64_t size)
    {
        return merkleRoot(mem, base, size);
    }

    /** Fold two measurements (multi-region domains). */
    static MerkleHash
    fold(MerkleHash a, MerkleHash b)
    {
        MerkleHash pair[2] = {a, b};
        return fnvBytes(pair, sizeof(pair));
    }

    /** Produce a signed report over (measurement, nonce). */
    AttestationReport
    sign(MerkleHash measurement, uint64_t nonce) const
    {
        AttestationReport report;
        report.measurement = measurement;
        report.nonce = nonce;
        report.signature = mac(measurement, nonce);
        return report;
    }

    /** Verify a report's signature and freshness. */
    bool
    verify(const AttestationReport &report, uint64_t expected_nonce) const
    {
        return report.nonce == expected_nonce &&
               report.signature == mac(report.measurement, report.nonce);
    }

  private:
    uint64_t
    mac(MerkleHash measurement, uint64_t nonce) const
    {
        uint64_t buf[3] = {key_, measurement, nonce};
        return fnvBytes(buf, sizeof(buf));
    }

    uint64_t key_;
};

} // namespace hpmp

#endif // HPMP_MONITOR_ATTESTATION_H

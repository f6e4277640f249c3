/**
 * @file
 * FNV-1a hashing: the one home of every FNV variant in the simulator.
 *
 * SecureMonitor::stateDigest, the chaos fuzzer and the model checker
 * build 64-bit state summaries by folding words into an FNV-1a
 * accumulator; the Merkle tree, attestation MACs and the migration
 * channel's frame checksums hash byte buffers. All of them use the
 * constants and steps below so every layer mixes identically.
 */

#ifndef HPMP_BASE_HASH_H
#define HPMP_BASE_HASH_H

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace hpmp
{

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;
/** 2^64 / golden ratio: the Merkle combine seed and scramble key. */
constexpr uint64_t kGoldenGamma = 0x9e3779b97f4a7c15ULL;

/** Fold one 64-bit word into an FNV-1a accumulator, byte by byte. */
constexpr uint64_t
fnvFold(uint64_t hash, uint64_t word)
{
    for (unsigned i = 0; i < 8; ++i) {
        hash ^= (word >> (i * 8)) & 0xff;
        hash *= kFnvPrime;
    }
    return hash;
}

/**
 * One FNV-1a step over a whole 64-bit word (xor the word, multiply
 * once). Cheaper than fnvFold and a different function: the monitor's
 * state digests use it.
 */
constexpr uint64_t
fnvWordStep(uint64_t hash, uint64_t word)
{
    return (hash ^ word) * kFnvPrime;
}

/**
 * Scramble one word (xor the golden gamma, multiply by the FNV
 * prime). Xor-ing scrambled values gives an order-independent set
 * digest.
 */
constexpr uint64_t
fnvScramble(uint64_t word)
{
    return (word ^ kGoldenGamma) * kFnvPrime;
}

/** kFnvPrime^n mod 2^64: the multiplier FNV-1a applies to n zero bytes. */
constexpr uint64_t
fnvPrimePow(uint64_t n)
{
    uint64_t result = 1;
    uint64_t base = kFnvPrime;
    for (; n; n >>= 1, base *= base) {
        if (n & 1)
            result *= base;
    }
    return result;
}

/**
 * FNV-1a of `len` zero bytes: xor with zero is the identity, so each
 * byte is one multiply and the whole run is seed * p^len.
 */
constexpr uint64_t
fnvZeros(uint64_t len, uint64_t seed = kFnvBasis)
{
    return seed * fnvPrimePow(len);
}

/**
 * Exact byte-serial FNV-1a of [data, data+len), seeded. An all-zero
 * 8-byte word costs one multiply by p^8 instead of eight xor/multiply
 * steps, so the cost follows the non-zero words; every value equals
 * the plain byte-at-a-time loop. `data` needs no alignment.
 */
inline uint64_t
fnvBytes(const void *data, size_t len, uint64_t seed = kFnvBasis)
{
    constexpr uint64_t kPrime8 = fnvPrimePow(8);
    const auto *bytes = static_cast<const uint8_t *>(data);
    uint64_t hash = seed;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, 8);
        if (word == 0) {
            hash *= kPrime8;
            continue;
        }
        for (unsigned b = 0; b < 8; ++b) {
            hash ^= bytes[i + b];
            hash *= kFnvPrime;
        }
    }
    for (; i < len; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

} // namespace hpmp

#endif // HPMP_BASE_HASH_H

/**
 * @file
 * FNV helper tests: the zero-aware fnvBytes against a plain
 * byte-at-a-time FNV-1a reference on randomized buffers, and the
 * closed forms the Merkle tree relies on for all-zero pages.
 */

#include <gtest/gtest.h>

#include <vector>

#include "base/hash.h"
#include "base/rng.h"

namespace hpmp
{
namespace
{

/** Textbook FNV-1a: xor each byte, then multiply by the prime. */
uint64_t
naiveFnv(const uint8_t *bytes, size_t len, uint64_t seed)
{
    uint64_t hash = seed;
    for (size_t i = 0; i < len; ++i) {
        hash ^= bytes[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/**
 * Fill with a mix of 8-byte runs: all zero, a single non-zero byte at
 * a random position, or random bytes (which may contain zeros).
 */
void
fillMixed(Rng &rng, std::vector<uint8_t> &buf)
{
    for (size_t i = 0; i < buf.size(); i += 8) {
        const size_t end = std::min(buf.size(), i + 8);
        switch (rng.below(3)) {
          case 0:
            std::fill(buf.begin() + i, buf.begin() + end, 0);
            break;
          case 1:
            std::fill(buf.begin() + i, buf.begin() + end, 0);
            buf[i + rng.below(end - i)] = uint8_t(1 + rng.below(255));
            break;
          default:
            for (size_t j = i; j < end; ++j)
                buf[j] = uint8_t(rng.below(256));
        }
    }
}

TEST(FnvBytes, MatchesByteSerialReferenceOnRandomBuffers)
{
    Rng rng(0xf00d);
    std::vector<uint8_t> buf(200 + 8);
    for (unsigned trial = 0; trial < 4000; ++trial) {
        const size_t len = rng.below(201);
        const size_t offset = rng.below(8); // unaligned starts too
        const uint64_t seed = trial % 4 == 0 ? kFnvBasis : rng.next();
        fillMixed(rng, buf);
        const uint8_t *data = buf.data() + offset;
        ASSERT_EQ(fnvBytes(data, len, seed), naiveFnv(data, len, seed))
            << "len " << len << " offset " << offset << " seed "
            << seed;
    }
}

TEST(FnvBytes, EmptyBufferIsTheSeed)
{
    EXPECT_EQ(fnvBytes(nullptr, 0), kFnvBasis);
    EXPECT_EQ(fnvBytes(nullptr, 0, 42), 42u);
}

TEST(FnvBytes, ZeroRunsHaveAClosedForm)
{
    EXPECT_EQ(fnvPrimePow(0), 1u);
    EXPECT_EQ(fnvPrimePow(1), kFnvPrime);
    const std::vector<uint8_t> zeros(4096, 0);
    for (const size_t len : {0, 1, 7, 8, 9, 64, 4095, 4096}) {
        EXPECT_EQ(fnvZeros(len), naiveFnv(zeros.data(), len, kFnvBasis))
            << len;
        EXPECT_EQ(fnvBytes(zeros.data(), len, 99), fnvZeros(len, 99))
            << len;
    }
}

TEST(FnvBytes, FoldIsTheLittleEndianBytesOfTheWord)
{
    Rng rng(3);
    for (unsigned i = 0; i < 100; ++i) {
        const uint64_t seed = rng.next();
        const uint64_t word = i % 5 ? rng.next() : 0;
        uint8_t bytes[8];
        for (unsigned b = 0; b < 8; ++b)
            bytes[b] = uint8_t(word >> (8 * b));
        EXPECT_EQ(fnvFold(seed, word), naiveFnv(bytes, 8, seed));
    }
}

TEST(FnvWordStep, IsOneXorMultiply)
{
    EXPECT_EQ(fnvWordStep(kFnvBasis, 0), kFnvBasis * kFnvPrime);
    EXPECT_EQ(fnvWordStep(5, 3), (5ULL ^ 3ULL) * kFnvPrime);
    // Xor of scrambles is order independent.
    EXPECT_EQ(fnvScramble(1) ^ fnvScramble(2),
              fnvScramble(2) ^ fnvScramble(1));
    EXPECT_NE(fnvScramble(1), fnvScramble(2));
}

} // namespace
} // namespace hpmp

/**
 * @file
 * The one checked number parser of the command-line drivers
 * (hpmp_sim, model_check, bench_paper, bench_simperf) and the
 * counterexample reader.
 */

#ifndef HPMP_BASE_PARSE_H
#define HPMP_BASE_PARSE_H

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace hpmp
{

/**
 * Parse a whole unsigned number — decimal, or hex with a 0x prefix.
 * @return false on an empty string, a sign, overflow or trailing junk.
 */
inline bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    errno = 0;
    out = std::strtoull(text.c_str(), &end, 0);
    return errno == 0 && *end == '\0';
}

} // namespace hpmp

#endif // HPMP_BASE_PARSE_H

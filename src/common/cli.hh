/**
 * @file
 * Strict numeric parsers for command-line flags.  Each one rejects
 * garbage, trailing characters and out-of-range values with a message
 * naming the flag and exit(1); std::atoi/atof would turn them into a
 * silent 0 (or wrap a negative count to ~2^64) and let the simulator
 * fail much later with a worse message.
 */

#ifndef TMCC_COMMON_CLI_HH
#define TMCC_COMMON_CLI_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace tmcc
{

/** An integer in [1, max]; pass the destination type's maximum when
 * the value is stored narrower than 64 bits. */
inline std::uint64_t
parsePositiveCount(const char *s, const char *what,
                   std::uint64_t max = UINT64_MAX)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (s[0] == '\0' || *end != '\0' || v <= 0 ||
        static_cast<std::uint64_t>(v) > max) {
        std::fprintf(stderr,
                     "%s must be a positive integer up to %llu, got "
                     "\"%s\"\n",
                     what, static_cast<unsigned long long>(max), s);
        std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
}

/** An integer >= 0. */
inline std::uint64_t
parseNonNegativeCount(const char *s, const char *what)
{
    char *end = nullptr;
    const long long v = std::strtoll(s, &end, 10);
    if (s[0] == '\0' || *end != '\0' || v < 0) {
        std::fprintf(stderr,
                     "%s must be a non-negative integer, got \"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return static_cast<std::uint64_t>(v);
}

/** A finite real > 0 (scales, fractions, seconds, ...). */
inline double
parsePositiveReal(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v <= 0.0) {
        std::fprintf(stderr, "%s must be a positive number, got \"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

/** A rate in [0, 1]. */
inline double
parseRate(const char *s, const char *what)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (s[0] == '\0' || *end != '\0' || !std::isfinite(v) || v < 0.0 ||
        v > 1.0) {
        std::fprintf(stderr, "%s must be a rate in [0, 1], got \"%s\"\n",
                     what, s);
        std::exit(1);
    }
    return v;
}

} // namespace tmcc

#endif // TMCC_COMMON_CLI_HH

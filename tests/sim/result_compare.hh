/**
 * @file
 * The one SimResult comparator of the sim tests: two results are
 * identical when every schema field (visitFields) encodes to the same
 * bytes, with the wall-clock-only fields zeroed (they legitimately
 * differ run to run and are excluded from bit-identity comparisons).
 * A mismatch names the first differing field.
 */

#ifndef TMCC_TESTS_SIM_RESULT_COMPARE_HH
#define TMCC_TESTS_SIM_RESULT_COMPARE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/serial.hh"
#include "sim/sweep_manifest.hh"

namespace tmcc
{

/** `res` with the wall-clock-only fields zeroed. */
inline SimResult
withoutWallClock(SimResult res)
{
    res.setupSeconds = 0.0;
    res.measureSeconds = 0.0;
    res.restoredFromCheckpoint = false;
    return res;
}

/** Canonical bytes of a result: its payload without wall clock. */
inline std::vector<std::uint8_t>
fingerprint(const SimResult &res)
{
    ByteWriter w;
    serializeSimResult(w, withoutWallClock(res));
    return w.take();
}

/** Each schema field's name and encoding, in payload order. */
inline std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
fieldBytes(const SimResult &res)
{
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> out;
    visitFields(res, [&out](const char *name, const auto &f) {
        ByteWriter w;
        serializeField(w, f);
        out.emplace_back(name, w.take());
    });
    return out;
}

inline ::testing::AssertionResult
sameResult(const SimResult &a, const SimResult &b)
{
    const auto fa = fieldBytes(withoutWallClock(a));
    const auto fb = fieldBytes(withoutWallClock(b));
    for (std::size_t i = 0; i < fa.size(); ++i)
        if (fa[i].second != fb[i].second)
            return ::testing::AssertionFailure()
                   << "SimResults differ first in field " << fa[i].first;
    return ::testing::AssertionSuccess();
}

inline void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_TRUE(sameResult(a, b));
}

} // namespace tmcc

#endif // TMCC_TESTS_SIM_RESULT_COMPARE_HH

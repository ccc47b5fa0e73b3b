/**
 * @file
 * The access engine's identity contract: every run below reproduces a
 * checked-in digest byte for byte, on every architecture, under
 * native / nested / huge-page translation, with epoch stats, and in
 * interval-sampling mode; and a run under an active Tracer (the
 * engine's Tracing=true instantiation) is byte-identical to the same
 * run without one.  Plus the strict validation of the --sample knobs
 * (death tests).
 *
 * A digest is the FNV-1a-64 of the serialized SimResult with the
 * wall-clock fields zeroed.  tests/sim/identity_digests.txt holds one
 * `<tag> <digest>` line per run.  Every build — the SIMD probe engine
 * (generic and -march=native) and the -DTMCC_SIMD=OFF scalar oracle —
 * must reproduce all of them, so a probe-engine divergence or an
 * unintended model change fails here.  On a mismatch the test prints
 * the line to paste in; re-record only with an intentional model
 * change.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/serial.hh"
#include "common/simd.hh"
#include "common/trace.hh"
#include "sim/sweep_manifest.hh"
#include "sim/system.hh"
#include "tests/sim/result_compare.hh"

namespace tmcc
{
namespace
{

SimConfig
tinyConfig(Arch arch, const std::string &workload = "pageRank")
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = workload;
    cfg.scale = 0.02;
    cfg.arch = arch;
    cfg.placementAccesses = 20'000;
    cfg.warmAccesses = 10'000;
    cfg.measureAccesses = 20'000;
    return cfg;
}

SimConfig
sampledConfig(Arch arch)
{
    SimConfig cfg = tinyConfig(arch);
    cfg.sampleWindows = 4;
    cfg.sampleWindowAccesses = 2'000;
    cfg.sampleWarmAccesses = 500;
    return cfg;
}

constexpr Arch allArchs[] = {
    Arch::NoCompression,    Arch::Compresso,
    Arch::Barebone,         Arch::BarebonePlusMl1,
    Arch::BarebonePlusMl2,  Arch::Tmcc,
};

SimResult
run(const SimConfig &cfg)
{
    System sys(cfg);
    return sys.measure();
}

/** tag -> digest, parsed once from tests/sim/identity_digests.txt. */
const std::map<std::string, std::string> &
recordedDigests()
{
    static const std::map<std::string, std::string> digests = [] {
        std::map<std::string, std::string> d;
        std::ifstream in(IDENTITY_DIGESTS_FILE);
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string tag, digest;
            if (fields >> tag >> digest)
                d[tag] = digest;
        }
        return d;
    }();
    return digests;
}

/** Run `cfg` and compare its digest with the recorded one for `tag`. */
void
expectDigest(const std::string &tag, const SimConfig &cfg)
{
    const SimResult res = run(cfg);
    ASSERT_GT(res.accesses, 0u);
    const std::vector<std::uint8_t> fp = fingerprint(res);
    char digest[17];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a(fp.data(), fp.size())));
    const auto &recorded = recordedDigests();
    ASSERT_FALSE(recorded.empty())
        << "no digests read from " << IDENTITY_DIGESTS_FILE;
    const auto it = recorded.find(tag);
    const std::string want =
        it == recorded.end() ? "(none recorded)" : it->second;
    EXPECT_EQ(want, digest)
        << "run digest for " << tag << " (" << simd::Active::name
        << " build) differs from " << IDENTITY_DIGESTS_FILE
        << "; if the model change is intentional, record this line:\n"
        << tag << " " << digest;
}

TEST(KernelIdentity, AllSixArchitectures)
{
    for (Arch arch : allArchs) {
        SCOPED_TRACE(archName(arch));
        expectDigest(std::string("exact_") + archName(arch),
                     tinyConfig(arch));
    }
}

TEST(KernelIdentity, TmccOnIrregularWorkload)
{
    // mcf exercises the embedded-CTE parallel/mismatch paths harder
    // than the graph workload.
    expectDigest("mcf_tmcc", tinyConfig(Arch::Tmcc, "mcf"));
}

TEST(KernelIdentity, TmccOnMemcloud)
{
    // Multi-tenant streams route the tenant id through System state;
    // the fingerprint includes the per-tenant stats, so misattribution
    // shows up.
    SimConfig cfg = tinyConfig(Arch::Tmcc, "memcloud");
    cfg.tenants = 4;
    expectDigest("memcloud_tmcc", cfg);
}

TEST(KernelIdentity, WithEpochStats)
{
    for (Arch arch : {Arch::NoCompression, Arch::Tmcc}) {
        SCOPED_TRACE(archName(arch));
        SimConfig cfg = tinyConfig(arch);
        cfg.statsInterval = 5'000;
        expectDigest(std::string("epochs_") + archName(arch), cfg);
    }
}

TEST(KernelIdentity, UnderTracing)
{
    // With a Tracer active the engine runs its Tracing=true
    // instantiation; the trace hooks must not touch simulator state.
    const std::string path =
        ::testing::TempDir() + "/engine_identity_trace.json";
    const SimConfig cfg = tinyConfig(Arch::Tmcc);

    Tracer tr(path);
    Tracer::setActive(&tr);
    const SimResult traced = run(cfg);
    Tracer::setActive(nullptr);
    EXPECT_GT(tr.eventCount(), 0u);

    EXPECT_EQ(fingerprint(traced), fingerprint(run(cfg)));
    std::remove(path.c_str());
}

TEST(KernelIdentity, NestedPaging)
{
    SimConfig cfg = tinyConfig(Arch::Tmcc);
    cfg.nestedPaging = true;
    expectDigest("nested_tmcc", cfg);
}

TEST(KernelIdentity, HugePages)
{
    SimConfig cfg = tinyConfig(Arch::Tmcc);
    cfg.hugePages = true;
    expectDigest("huge_tmcc", cfg);
}

TEST(KernelIdentity, SampledModeMatchesRecordedDigests)
{
    // Interval sampling fast-forwards functionally between windows.
    for (Arch arch : allArchs) {
        SCOPED_TRACE(archName(arch));
        expectDigest(std::string("sampled_") + archName(arch),
                     sampledConfig(arch));
    }
}

TEST(KernelIdentity, SampledRunProducesCiSummary)
{
    const SimResult r = run(sampledConfig(Arch::Tmcc));
    EXPECT_EQ(r.sample.windows, 4u);
    EXPECT_EQ(r.sample.windowAccesses, 2'000u);
    EXPECT_EQ(r.sample.warmupAccesses, 500u);
    EXPECT_GT(r.sample.ffAccesses, 0u);
    ASSERT_EQ(r.sample.metrics.size(), 10u);
    EXPECT_EQ(r.sample.metrics[0].name, "accesses_per_ns");
    for (const SampleMetric &m : r.sample.metrics) {
        SCOPED_TRACE(m.name);
        EXPECT_GE(m.ci95, 0.0);
        EXPECT_TRUE(r.stats.has("sys.sample." + m.name + ".mean"));
        EXPECT_TRUE(r.stats.has("sys.sample." + m.name + ".ci95"));
    }
    EXPECT_EQ(r.stats.get("sys.sample.windows"), 4.0);
    EXPECT_GT(r.sample.metrics[0].mean, 0.0);
    // Every window measured at least w accesses per core.
    EXPECT_GE(r.accesses, 4u * 2'000u);
    EXPECT_GT(r.elapsed, 0u);
    // Totals accumulate only inside windows, so a sampled run counts
    // fewer measured accesses than the exact run it approximates.
    const SimResult exact = run(tinyConfig(Arch::Tmcc));
    EXPECT_LT(r.accesses, exact.accesses);
}

TEST(KernelIdentity, ExactRunHasEmptySampleSummary)
{
    const SimResult r = run(tinyConfig(Arch::NoCompression));
    EXPECT_EQ(r.sample.windows, 0u);
    EXPECT_TRUE(r.sample.metrics.empty());
    EXPECT_FALSE(r.stats.has("sys.sample.windows"));
}

// ---- strict validation (death tests) ------------------------------

using KernelValidationDeath = ::testing::Test;

TEST(KernelValidationDeath, RejectsOversubscribedSampling)
{
    SimConfig cfg = tinyConfig(Arch::NoCompression);
    cfg.sampleWindows = 100;
    cfg.sampleWindowAccesses = 1'000; // 100 x 1000 > 20k measured
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "windows x \\(window \\+ warm-up\\)");
}

TEST(KernelValidationDeath, RejectsEpochsFinerThanWindows)
{
    SimConfig cfg = sampledConfig(Arch::NoCompression);
    cfg.statsInterval = 100; // < window size 2000
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "--stats-interval must be at least the sample window");
}

TEST(KernelValidationDeath, RejectsSampleSizesWithoutWindowCount)
{
    SimConfig cfg = tinyConfig(Arch::NoCompression);
    cfg.sampleWindowAccesses = 10;
    EXPECT_EXIT({ System(cfg).measure(); },
                ::testing::ExitedWithCode(1),
                "window count is zero");
}

TEST(KernelValidationDeath, ParseSampleSpecRejectsGarbage)
{
    SimConfig cfg;
    const char *bad[] = {
        "",  "5",      "0:100", "5:0",   "5:100:0",
        "x", "5:x",    "5:100:100:9",    "5:-3",
        ":", "5:", ":5", "99999999999999999999:5",
    };
    for (const char *s : bad) {
        SCOPED_TRACE(s);
        EXPECT_EXIT(parseSampleSpec("--sample", s, cfg),
                    ::testing::ExitedWithCode(1),
                    "--sample must be k:w\\[:warm\\]");
    }
}

TEST(KernelValidation, ParseAcceptsGoodSpecs)
{
    SimConfig cfg;
    parseSampleSpec("--sample", "30:10000", cfg);
    EXPECT_EQ(cfg.sampleWindows, 30u);
    EXPECT_EQ(cfg.sampleWindowAccesses, 10'000u);
    EXPECT_EQ(cfg.sampleWarmAccesses, 10'000u); // defaults to w
    parseSampleSpec("--sample", "8:500:125", cfg);
    EXPECT_EQ(cfg.sampleWindows, 8u);
    EXPECT_EQ(cfg.sampleWindowAccesses, 500u);
    EXPECT_EQ(cfg.sampleWarmAccesses, 125u);
}

} // namespace
} // namespace tmcc

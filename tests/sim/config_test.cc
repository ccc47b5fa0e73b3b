/** Tests for configuration presets and remaining workload sets. */

#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace tmcc
{
namespace
{

TEST(ScaledDefault, PreservesReachHierarchy)
{
    const SimConfig cfg = SimConfig::scaledDefault();

    // TLB reach ~ LLC; Compresso CTE reach above both; TMCC CTE reach
    // largest (the §III/IV structure).
    const double tlb_reach = cfg.tlbEntries * double(pageSize);
    const double l3 = double(cfg.hierarchy.l3Bytes);
    const double compresso_reach =
        double(cfg.compresso.cteCacheBytes) / blockCteBytes * pageSize;
    const double tmcc_reach = double(cfg.osMc.cteCacheBytes) /
                              pageCteBytes * pageSize;

    EXPECT_GE(tlb_reach, l3);
    EXPECT_GE(compresso_reach, tlb_reach);
    EXPECT_GT(tmcc_reach, compresso_reach);

    // A default graph workload footprint dwarfs every reach.
    auto wl = makeWorkload("pageRank", 0, 4, cfg.scale, 1);
    EXPECT_GT(static_cast<double>(wl->footprintBytes()),
              3.0 * tmcc_reach);
}

TEST(ScaledDefault, TimingStaysFullScale)
{
    const SimConfig cfg = SimConfig::scaledDefault();
    // Latency parameters must not be scaled (Table III values).
    EXPECT_DOUBLE_EQ(cfg.cpuGhz, 2.8);
    EXPECT_EQ(cfg.l1Cycles, 3u);
    EXPECT_EQ(cfg.l2Cycles, 11u);
    EXPECT_EQ(cfg.l3Cycles, 50u);
    EXPECT_DOUBLE_EQ(cfg.nocToMcNs, 18.0);
    EXPECT_DOUBLE_EQ(cfg.dram.tClNs, 13.75);
}

TEST(Workloads, SmallAndBandwidthSetsStayInRegions)
{
    std::vector<std::string> names = smallWorkloadNames();
    for (const auto &n : bandwidthWorkloadNames())
        names.push_back(n);
    for (const auto &name : names) {
        auto wl = makeWorkload(name, 2, 4, 0.05, 9);
        const auto &regions = wl->regions();
        for (int i = 0; i < 3000; ++i) {
            const MemAccess a = wl->next();
            bool inside = false;
            for (const auto &r : regions)
                inside |= a.vaddr >= r.base &&
                          a.vaddr < r.base + r.bytes;
            ASSERT_TRUE(inside) << name;
        }
    }
}

TEST(Workloads, StreamIsSequential)
{
    auto wl = makeWorkload("stream", 0, 1, 0.05, 1);
    unsigned sequential = 0;
    Addr prev = wl->next().vaddr;
    for (int i = 0; i < 5000; ++i) {
        const Addr cur = wl->next().vaddr;
        sequential += cur == prev + blockSize;
        prev = cur;
    }
    EXPECT_GT(sequential, 4500u);
}

TEST(Workloads, GupsIsUniformRandom)
{
    auto wl = makeWorkload("gups", 0, 1, 0.05, 1);
    std::unordered_set<Addr> pages;
    unsigned writes = 0;
    for (int i = 0; i < 5000; ++i) {
        const MemAccess a = wl->next();
        pages.insert(pageNumber(a.vaddr));
        writes += a.isWrite;
    }
    EXPECT_GT(pages.size(), 600u); // scattered
    EXPECT_NEAR(writes / 5000.0, 0.5, 0.05);
}

TEST(System, SixteenCoreTwoMcConfigRuns)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "hpcg";
    cfg.scale = 0.05;
    cfg.cores = 16;
    cfg.interleave.numMcs = 2;
    cfg.interleave.channelsPerMc = 2;
    cfg.interleave.mcGranularity = 4096;
    cfg.placementAccesses = 4000;
    cfg.warmAccesses = 2000;
    cfg.measureAccesses = 4000;
    cfg.arch = Arch::NoCompression;
    System sys(cfg);
    const SimResult r = sys.run();
    EXPECT_GT(r.accesses, 0u);
    // Traffic must reach every channel of both MCs.
    EXPECT_GT(r.stats.get("dram.mc0.ch0.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc0.ch1.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc1.ch0.reads"), 0.0);
    EXPECT_GT(r.stats.get("dram.mc1.ch1.reads"), 0.0);
}

TEST(System, PrefetchersOffStillCorrect)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "pageRank";
    cfg.scale = 0.02;
    cfg.hierarchy.prefetchers = false;
    cfg.placementAccesses = 10000;
    cfg.warmAccesses = 5000;
    cfg.measureAccesses = 10000;
    cfg.arch = Arch::Tmcc;
    System sys(cfg);
    const SimResult r = sys.run();
    EXPECT_GT(r.accesses, 0u);
    EXPECT_EQ(r.stats.get("hier.pf.nl1.0.issued"), 0.0);
}

TEST(NestedPaging, TwoDWalksFetchMorePtbs)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "mcf";
    cfg.scale = 0.1;
    cfg.arch = Arch::NoCompression;
    cfg.placementAccesses = 8000;
    cfg.warmAccesses = 4000;
    cfg.measureAccesses = 8000;

    System native(cfg);
    const SimResult rn = native.run();

    cfg.nestedPaging = true;
    System nested(cfg);
    const SimResult rv = nested.run();

    const double native_fetches =
        rn.stats.get("hier.walker_accesses") /
        std::max(1.0, rn.stats.get("core0.walker.walks") * 4.0);
    const double nested_fetches =
        rv.stats.get("hier.walker_accesses") /
        std::max(1.0, rv.stats.get("core0.walker.walks") * 4.0);
    // A 2D walk needs several times the PTB fetches of a native walk
    // (up to 24 vs 4; PWCs absorb part of it).
    EXPECT_GT(nested_fetches, native_fetches * 1.8);
}

TEST(NestedPaging, TmccStillWorksUnderVms)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "mcf";
    cfg.scale = 0.1;
    cfg.nestedPaging = true;
    cfg.placementAccesses = 8000;
    cfg.warmAccesses = 4000;
    cfg.measureAccesses = 8000;

    cfg.arch = Arch::Barebone;
    System bb(cfg);
    const SimResult rb = bb.run();

    cfg.arch = Arch::Tmcc;
    System tm(cfg);
    const SimResult rt = tm.run();

    // Host PTBs still embed CTEs: the parallel path must exist and
    // TMCC must not lose to barebone.
    EXPECT_GE(rt.accessesPerNs(), rb.accessesPerNs() * 0.98);
    EXPECT_GT(rt.ml1Parallel + rt.ml1CteHit, 0u);
}

TEST(NestedPaging, DeterministicAndConsistent)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.workload = "canneal";
    cfg.scale = 0.1;
    cfg.nestedPaging = true;
    cfg.arch = Arch::Tmcc;
    cfg.placementAccesses = 5000;
    cfg.warmAccesses = 2000;
    cfg.measureAccesses = 5000;
    System a(cfg);
    System b(cfg);
    const SimResult ra = a.run();
    const SimResult rb = b.run();
    EXPECT_EQ(ra.elapsed, rb.elapsed);
    EXPECT_EQ(ra.llcMisses, rb.llcMisses);
}

// ---- SimConfig::validate(): the one gate for sim-level ranges ------

TEST(ConfigValidate, AcceptsDefaultsAndBounds)
{
    EXPECT_TRUE(SimConfig{}.validate().ok());
    EXPECT_TRUE(SimConfig::scaledDefault().validate().ok());
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.scale = SimConfig::kMinScale;
    cfg.cores = SimConfig::kMaxCores;
    EXPECT_TRUE(cfg.validate().ok());
    cfg.scale = SimConfig::kMaxScale;
    cfg.cores = 1;
    cfg.cteBufferEntries = CteBuffer::maxEntries;
    EXPECT_TRUE(cfg.validate().ok());
}

TEST(ConfigValidate, RejectsEachRule)
{
    struct Case
    {
        const char *what;
        void (*mutate)(SimConfig &);
    };
    const Case cases[] = {
        {"arch", [](SimConfig &c) { c.arch = static_cast<Arch>(6); }},
        {"scale", [](SimConfig &c) { c.scale = 0.0; }},
        {"scale", [](SimConfig &c) { c.scale = SimConfig::kMinScale / 2; }},
        {"scale", [](SimConfig &c) { c.scale = 1e-9; }},
        {"scale", [](SimConfig &c) { c.scale = SimConfig::kMaxScale * 2; }},
        {"scale", [](SimConfig &c) { c.scale = 1e9; }},
        {"scale", [](SimConfig &c) { c.scale = std::nan(""); }},
        {"scale", [](SimConfig &c) { c.scale = HUGE_VAL; }},
        {"cores", [](SimConfig &c) { c.cores = 0; }},
        {"cores", [](SimConfig &c) { c.cores = SimConfig::kMaxCores + 1; }},
        {"cores", [](SimConfig &c) { c.cores = 100000; }},
        {"cteBufferEntries", [](SimConfig &c) { c.cteBufferEntries = 0; }},
        {"cteBufferEntries",
         [](SimConfig &c) {
             c.cteBufferEntries = CteBuffer::maxEntries + 1;
         }},
        {"window count is zero",
         [](SimConfig &c) { c.sampleWindowAccesses = 10; }},
        {"window count is zero",
         [](SimConfig &c) { c.sampleWarmAccesses = 10; }},
        {"sample window size must be positive",
         [](SimConfig &c) { c.sampleWindows = 2; }},
        {"windows x (window + warm-up)",
         [](SimConfig &c) {
             c.sampleWindows = 100;
             c.sampleWindowAccesses = c.measureAccesses / 100 + 1;
         }},
        {"windows x (window + warm-up)",
         [](SimConfig &c) { // window + warm-up wraps around
             c.sampleWindows = 1;
             c.sampleWindowAccesses = ~0ULL;
             c.sampleWarmAccesses = 1;
         }},
        {"--stats-interval",
         [](SimConfig &c) {
             c.sampleWindows = 2;
             c.sampleWindowAccesses = 1000;
             c.statsInterval = 999;
         }},
    };
    for (const Case &tc : cases) {
        SimConfig cfg = SimConfig::scaledDefault();
        tc.mutate(cfg);
        const Status s = cfg.validate();
        SCOPED_TRACE(s.toString());
        ASSERT_FALSE(s.ok()) << tc.what;
        EXPECT_EQ(s.code(), StatusCode::InvalidArgument);
        EXPECT_NE(s.message().find(tc.what), std::string::npos);
    }
}

TEST(ConfigValidateDeath, SystemExitsOneOnInvalidConfig)
{
    SimConfig cfg = SimConfig::scaledDefault();
    cfg.scale = 1e-9;
    EXPECT_EXIT(System{cfg}, ::testing::ExitedWithCode(1),
                "invalid config: scale 1e-09 outside");
}

TEST(ConfigValidate, EveryWorkloadRunsAtMinScale)
{
    // The lower bound is only safe if every named workload can lay out
    // and run there (too small a scale used to panic in setup).
    std::vector<std::string> names = largeWorkloadNames();
    for (const auto *set : {&smallWorkloadNames(), &bandwidthWorkloadNames()})
        names.insert(names.end(), set->begin(), set->end());
    names.push_back("memcloud");
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        SimConfig cfg = SimConfig::scaledDefault();
        cfg.workload = name;
        cfg.scale = SimConfig::kMinScale;
        cfg.placementAccesses = 2000;
        cfg.warmAccesses = 1000;
        cfg.measureAccesses = 2000;
        const SimResult r = System(cfg).run();
        EXPECT_GT(r.accesses, 0u);
        EXPECT_GT(r.footprintBytes, 0u);
    }
}

} // namespace
} // namespace tmcc

/**
 * @file
 * Access-engine microbenchmark: measured-phase throughput (million
 * simulated accesses per host second) of the access engine on a few
 * fixed configurations.  Not a paper figure — a host-speed trend.
 *
 * A second section microbenchmarks the SIMD set-probe engine structure
 * by structure: ns/probe through each cache level's geometry, the CTE
 * cache and the TLB, on both the hit path (resident probe + LRU
 * refresh) and the miss path (whole-set compare that finds nothing).
 * Those metrics live under the reserved `host.` key namespace:
 * machine-dependent trends, not exact-match numbers —
 * scripts/bench_diff.py classifies them accordingly.
 */

#include "bench/bench_util.hh"

#include "cache/cache.hh"
#include "mc/cte_cache.hh"
#include "vm/tlb.hh"

using namespace tmcc;
using namespace tmcc::bench;

namespace
{

volatile std::uint64_t g_probe_sink;

/** Cheap per-iteration address scrambler (xorshift64). */
struct Scramble
{
    std::uint64_t s = 0x9e3779b97f4a7c15ULL;

    std::uint64_t
    next()
    {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        return s;
    }
};

template <class Fn>
double
nsPerOp(std::uint64_t iters, Fn &&fn)
{
    Scramble rng;
    std::uint64_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i)
        sink += fn(rng.next());
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    g_probe_sink = sink;
    return sec * 1e9 / static_cast<double>(iters);
}

/**
 * ns/probe through one cache geometry: fill every way, then time
 * resident accesses (hit path) and accesses one capacity beyond
 * (miss path, pure whole-set compare).
 */
void
probeCache(BenchReport &report, const char *tag, std::size_t bytes,
           unsigned assoc, std::uint64_t iters)
{
    Cache c(tag, bytes, assoc);
    const std::uint64_t blocks = bytes / blockSize;
    for (std::uint64_t b = 0; b < blocks; ++b)
        c.insert({b * blockSize, false, false});
    const double hit = nsPerOp(iters, [&](std::uint64_t r) {
        return c.access((r % blocks) * blockSize, false) ? 1 : 0;
    });
    const double miss = nsPerOp(iters, [&](std::uint64_t r) {
        return c.access((blocks + r % blocks) * blockSize, false) ? 1
                                                                  : 0;
    });
    std::printf("%-14s %8.1f %8.1f\n", tag, hit, miss);
    report.metric(std::string("host.probe.") + tag + ".hit_ns", hit);
    report.metric(std::string("host.probe.") + tag + ".miss_ns", miss);
}

void
probeStructures(BenchReport &report, std::uint64_t iters)
{
    std::printf("\nper-structure probe engine (ns/probe, %s)\n",
                simd::Active::name);
    std::printf("%-14s %8s %8s\n", "structure", "hit", "miss");

    // Table III geometries (cache/hierarchy.hh defaults).
    probeCache(report, "l1", 64 * 1024, 8, iters);
    probeCache(report, "l2", 256 * 1024, 8, iters);
    probeCache(report, "l3", 8 * 1024 * 1024, 16, iters);

    {
        CteCache cte(64 * 1024, 8, 8);
        const std::uint64_t pages =
            cte.numSets() * cte.associativity() * cte.pagesPerBlock();
        for (std::uint64_t p = 0; p < pages; p += cte.pagesPerBlock())
            cte.insert(p);
        const double hit = nsPerOp(iters, [&](std::uint64_t r) {
            return cte.lookup(r % pages) ? 1 : 0;
        });
        const double miss = nsPerOp(iters, [&](std::uint64_t r) {
            return cte.lookup(pages + r % pages) ? 1 : 0;
        });
        std::printf("%-14s %8.1f %8.1f\n", "cte", hit, miss);
        report.metric("host.probe.cte.hit_ns", hit);
        report.metric("host.probe.cte.miss_ns", miss);
    }
    {
        Tlb tlb(2048, 8);
        const std::uint64_t vpns = 2048;
        for (std::uint64_t v = 0; v < vpns; ++v)
            tlb.insert(v, v);
        Ppn ppn = 0;
        const double hit = nsPerOp(iters, [&](std::uint64_t r) {
            return tlb.lookup((r % vpns) * pageSize, ppn) ? 1 : 0;
        });
        const double miss = nsPerOp(iters, [&](std::uint64_t r) {
            return tlb.lookup((vpns + r % vpns) * pageSize, ppn) ? 1
                                                                 : 0;
        });
        std::printf("%-14s %8.1f %8.1f\n", "tlb", hit, miss);
        report.metric("host.probe.tlb.hit_ns", hit);
        report.metric("host.probe.tlb.miss_ns", miss);
    }
}

double
measuredMaccPerSec(const SimResult &r)
{
    return r.measureSeconds > 0.0
               ? static_cast<double>(r.accesses) / r.measureSeconds / 1e6
               : 0.0;
}

} // namespace

int
main()
{
    BenchReport report("kernel_micro");
    header("Engine micro: measured-phase throughput of the access engine",
           "accesses/sec tracked as a host-speed trend");
    std::printf("%-14s %-10s %12s\n", "workload", "arch", "Macc/s");

    struct Case
    {
        const char *workload;
        Arch arch;
        const char *tag;
    };
    const Case cases[] = {
        {"pageRank", Arch::NoCompression, "none"},
        {"pageRank", Arch::Compresso, "compresso"},
        {"pageRank", Arch::Tmcc, "tmcc"},
        {"mcf", Arch::Tmcc, "tmcc"},
    };

    for (const Case &c : cases) {
        SimConfig cfg = baseConfig(c.workload, c.arch);
        // Time the full measured phase: never sample.
        cfg.sampleWindows = 0;
        cfg.sampleWindowAccesses = 0;
        cfg.sampleWarmAccesses = 0;
        const double rate = measuredMaccPerSec(run(cfg));
        std::printf("%-14s %-10s %12.2f\n", c.workload, c.tag, rate);
        report.metric(std::string("host.engine.") + c.workload + "." +
                          c.tag + ".macc_per_s",
                      rate);
    }

    probeStructures(report, quickEnabled() ? 300'000 : 3'000'000);
    return 0;
}

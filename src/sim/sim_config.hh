/**
 * @file
 * Experiment configuration: Table III defaults plus the architecture
 * selector and workload/scale knobs.
 */

#ifndef TMCC_SIM_SIM_CONFIG_HH
#define TMCC_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "compresso/compresso_mc.hh"
#include "dram/dram_config.hh"
#include "tmcc/os_mc.hh"

namespace tmcc
{

/** Which MC architecture to simulate. */
enum class Arch
{
    NoCompression,
    Compresso,
    Barebone, //!< OS-inspired without TMCC's two optimizations
    BarebonePlusMl1, //!< barebone + CTE embedding only (Fig. 20 split)
    BarebonePlusMl2, //!< barebone + fast Deflate only (Fig. 20 split)
    Tmcc,     //!< OS-inspired + CTE embedding + fast Deflate
};

const char *archName(Arch arch);

/**
 * Which measured-loop implementation runs the accesses.  Both produce
 * bit-identical SimResults; `Scalar` is the one-access-at-a-time
 * oracle, `Batch` runs batch-of-accesses kernels over SoA state with
 * tracing/epoch hooks compiled out when off.
 */
enum class KernelMode : std::uint8_t
{
    Scalar = 0,
    Batch = 1,
};

/** Full experiment description. */
struct SimConfig
{
    std::string workload = "pageRank";
    double scale = 0.5; //!< workload footprint scale (see factory.cc)
    unsigned cores = 4;
    std::uint64_t seed = 1;

    Arch arch = Arch::Tmcc;

    // CPU (Table III): 2.8GHz; cache latencies in CPU cycles.
    double cpuGhz = 2.8;
    unsigned l1Cycles = 3;
    unsigned l2Cycles = 11; //!< additional
    unsigned l3Cycles = 50; //!< additional
    double nocToMcNs = 18.0;

    unsigned tlbEntries = 2048;
    /** Per-core CTE Buffer entries (§V-A6); 1..CteBuffer::maxEntries
     * (65536), which deserialized configs are checked against. */
    unsigned cteBufferEntries = 64;
    bool hugePages = false;

    /**
     * 2D (nested) paging for virtual machines (§V-A3, Fig. 12b): the
     * workload's table becomes a *guest* table in guest-physical
     * space, and every guest PTB fetch plus the final data access is
     * translated through a *host* page table.  TMCC's CTE embedding
     * applies to the host PTBs of every constituent host walk.
     */
    bool nestedPaging = false;

    /**
     * Out-of-order latency overlap: the fraction of a load's
     * beyond-L1 latency the 4-wide OoO core hides via MLP.  1.0 = fully
     * blocking in-order.  Applied uniformly, so it compresses relative
     * gaps the way an OoO core does.
     */
    double memOverlapFactor = 2.0;

    HierarchyConfig hierarchy;
    DramConfig dram;
    InterleaveConfig interleave;

    CompressoConfig compresso;
    OsMcConfig osMc;

    /**
     * DRAM budget for the OS-inspired architectures as a fraction of
     * the workload footprint (Table IV columns); 0 = match Compresso's
     * usage (iso-savings, Fig. 17).
     */
    double dramBudgetFraction = 0.0;

    // Phase lengths (accesses per core).
    std::uint64_t placementAccesses = 400'000;
    std::uint64_t warmAccesses = 300'000;
    std::uint64_t measureAccesses = 500'000;

    /**
     * Epoch statistics: snapshot a delta StatDump every N measured
     * accesses (across all cores) so time-series curves -- ML2 access
     * rate (Fig. 21), CTE hit rate, live DRAM bytes -- can be plotted
     * over the measured window.  0 disables snapshots entirely; the
     * run is then bit-identical to a build without the feature.
     */
    std::uint64_t statsInterval = 0;

    /** Measured-loop implementation (`--kernel` / TMCC_KERNEL). */
    KernelMode kernel = KernelMode::Scalar;

    /**
     * SMARTS-style interval sampling (`--sample k:w[:warm]`): instead
     * of simulating every measured access in detail, run
     * `sampleWindows` detailed windows of `sampleWindowAccesses`
     * accesses per core, each preceded by `sampleWarmAccesses` of
     * detailed warm-up, and functionally fast-forward (translation +
     * ML1/ML2 state updated, no timing) in between.  Headline metrics
     * are then reported as per-window mean + 95% CI in
     * SimResult::sample.  sampleWindows == 0 (default) disables
     * sampling: the run is exact and bit-identical to a build without
     * the feature.
     */
    std::uint64_t sampleWindows = 0;
    std::uint64_t sampleWindowAccesses = 0;
    std::uint64_t sampleWarmAccesses = 0;

    /**
     * Multi-tenant knobs (`--tenants` / `--tenant-churn` /
     * `--tenant-zipf`): only the "memcloud" workload reads them; every
     * other engine ignores them entirely.  Defaults mirror TenantKnobs.
     */
    unsigned tenants = 6;       //!< guest address spaces multiplexed
    double tenantChurn = 0.001; //!< per-burst guest respawn probability
    double tenantZipf = 1.1;    //!< tenant popularity skew (Zipf alpha)

    /**
     * The reach-scaled preset used by the benches: workload footprints
     * are ~1/400 of the paper's, so every capacity-like structure
     * (TLB reach, CTE-cache reach, LLC, free-list watermarks) scales by
     * a similar factor to preserve the reach ratios §III/IV build on:
     *
     *   footprint >> TMCC CTE reach = 4x Compresso CTE reach
     *   Compresso CTE reach ~ TLB reach ~ LLC
     *
     * Timing parameters (latencies, DRAM, Deflate ASICs) stay at the
     * paper's full-scale values: latencies do not scale with capacity.
     */
    static SimConfig scaledDefault();
};

/**
 * Strictly parse a `--kernel` / TMCC_KERNEL value.  `flag` names the
 * source ("--kernel" or "TMCC_KERNEL") for the error message.
 */
inline KernelMode
parseKernelMode(const std::string &flag, const std::string &s)
{
    if (s == "scalar")
        return KernelMode::Scalar;
    if (s == "batch")
        return KernelMode::Batch;
    fatal(flag + " must be \"scalar\" or \"batch\", got \"" + s + "\"");
}

/**
 * Strictly parse a `--sample` / TMCC_SAMPLE spec `k:w[:warm]` (all
 * positive integers; warm defaults to w) into cfg.sampleWindows /
 * sampleWindowAccesses / sampleWarmAccesses.
 */
inline void
parseSampleSpec(const std::string &flag, const std::string &s,
                SimConfig &cfg)
{
    const std::string usage =
        flag + " must be k:w[:warm] with positive integers, got \"" + s +
        "\"";
    std::uint64_t parts[3] = {0, 0, 0};
    std::size_t nparts = 0;
    std::size_t pos = 0;
    while (true) {
        fatalIf(nparts == 3, usage);
        const std::size_t colon = s.find(':', pos);
        const std::string tok = s.substr(
            pos, colon == std::string::npos ? std::string::npos
                                            : colon - pos);
        fatalIf(tok.empty() ||
                    tok.find_first_not_of("0123456789") !=
                        std::string::npos ||
                    tok.size() > 19,
                usage);
        parts[nparts++] = std::stoull(tok);
        fatalIf(parts[nparts - 1] == 0, usage);
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    fatalIf(nparts < 2, usage);
    cfg.sampleWindows = parts[0];
    cfg.sampleWindowAccesses = parts[1];
    cfg.sampleWarmAccesses = nparts == 3 ? parts[2] : parts[1];
}

} // namespace tmcc

#endif // TMCC_SIM_SIM_CONFIG_HH

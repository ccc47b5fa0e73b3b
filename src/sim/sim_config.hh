/**
 * @file
 * Experiment configuration: Table III defaults plus the architecture
 * selector and workload/scale knobs.
 */

#ifndef TMCC_SIM_SIM_CONFIG_HH
#define TMCC_SIM_SIM_CONFIG_HH

#include <concepts>
#include <cstdint>
#include <string>
#include <type_traits>

#include "cache/hierarchy.hh"
#include "common/log.hh"
#include "common/status.hh"
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
 * `T` is `Record` or `const Record`: lets one schema visitor serve
 * both the encoders (const) and the decoders / perturbers (mutable).
 */
template <class T, class Record>
concept SchemaRecord = std::same_as<std::remove_const_t<T>, Record>;

/** The role of a SimConfig field in the schema (visitFields). */
enum class FieldTag : std::uint8_t
{
    Run,   //!< read after setup: arch, MC/cache/DRAM knobs, phases
    Setup, //!< read by the setup phase: keys the SetupCheckpoint
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
     * (65536), which validate() checks. */
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

    /** Bounds of validate(), not options.  Every workload lays out and
     * runs at kMinScale on 1..kMaxCores cores (the graphs keep ~800
     * vertices; pageRank's layout breaks between 1e-6 and 1e-7); at
     * kMaxScale x kMaxCores the largest setup (mcf's per-core
     * instances, 24 GB of simulated footprint) peaks near 1.4 GB of
     * host memory.  In-tree configs use scale 0.02-1.0, <= 16 cores. */
    static constexpr double kMinScale = 1e-4;
    static constexpr double kMaxScale = 4.0;
    static constexpr unsigned kMaxCores = 64;

    /**
     * The sim-level range rules (docs/ERROR_MODEL.md): arch, scale,
     * cores, CTE Buffer size and the sampling geometry.  Checked at
     * exactly two gates: deserializeSimConfig (as Corruption) and
     * System's constructor (fatal).  Components keep their own
     * structural checks.
     */
    Status validate() const;
};

/**
 * The SimConfig field schema: calls `v(name, field, tag)` once per
 * field, in payload order.  Everything that walks a whole config --
 * the sweep payload codec (serializeSimConfig), sweepGridKey and
 * SetupCheckpoint::keyFor (the Setup-tagged subset) -- is driven from
 * this one list, so a field added here travels everywhere and a field
 * missing here travels nowhere (sim_config.cc holds a sizeof tripwire).
 */
template <SchemaRecord<SimConfig> Cfg, class V>
void
visitFields(Cfg &c, V &&v)
{
    constexpr FieldTag S = FieldTag::Setup;
    constexpr FieldTag R = FieldTag::Run;
    v("workload", c.workload, S);
    v("scale", c.scale, S);
    v("cores", c.cores, S);
    v("seed", c.seed, S);
    v("arch", c.arch, R);

    v("cpuGhz", c.cpuGhz, R);
    v("l1Cycles", c.l1Cycles, R);
    v("l2Cycles", c.l2Cycles, R);
    v("l3Cycles", c.l3Cycles, R);
    v("nocToMcNs", c.nocToMcNs, R);
    v("tlbEntries", c.tlbEntries, R);
    v("cteBufferEntries", c.cteBufferEntries, R);
    v("hugePages", c.hugePages, S);
    v("nestedPaging", c.nestedPaging, S);
    v("memOverlapFactor", c.memOverlapFactor, R);

    v("hierarchy.l1Bytes", c.hierarchy.l1Bytes, R);
    v("hierarchy.l1Assoc", c.hierarchy.l1Assoc, R);
    v("hierarchy.l2Bytes", c.hierarchy.l2Bytes, R);
    v("hierarchy.l2Assoc", c.hierarchy.l2Assoc, R);
    v("hierarchy.l3Bytes", c.hierarchy.l3Bytes, R);
    v("hierarchy.l3Assoc", c.hierarchy.l3Assoc, R);
    v("hierarchy.prefetchers", c.hierarchy.prefetchers, R);
    v("hierarchy.strideDegreeL1", c.hierarchy.strideDegreeL1, R);
    v("hierarchy.strideDegreeL2", c.hierarchy.strideDegreeL2, R);

    v("dram.ranks", c.dram.ranks, R);
    v("dram.bankGroups", c.dram.bankGroups, R);
    v("dram.banksPerGroup", c.dram.banksPerGroup, R);
    v("dram.rowBytes", c.dram.rowBytes, R);
    v("dram.channelBytes", c.dram.channelBytes, R);
    v("dram.tCkNs", c.dram.tCkNs, R);
    v("dram.tClNs", c.dram.tClNs, R);
    v("dram.tRcdNs", c.dram.tRcdNs, R);
    v("dram.tRpNs", c.dram.tRpNs, R);
    v("dram.tBurstNs", c.dram.tBurstNs, R);
    v("dram.tWrNs", c.dram.tWrNs, R);
    v("dram.tRtwNs", c.dram.tRtwNs, R);
    v("dram.tWtrNs", c.dram.tWtrNs, R);
    v("dram.rowAccessCap", c.dram.rowAccessCap, R);
    v("dram.writeQueueDepth", c.dram.writeQueueDepth, R);
    v("dram.writeDrainHigh", c.dram.writeDrainHigh, R);
    v("dram.writeDrainLow", c.dram.writeDrainLow, R);

    v("interleave.numMcs", c.interleave.numMcs, R);
    v("interleave.channelsPerMc", c.interleave.channelsPerMc, R);
    v("interleave.mcGranularity", c.interleave.mcGranularity, R);
    v("interleave.channelGranularity", c.interleave.channelGranularity,
      R);

    v("compresso.cteCacheBytes", c.compresso.cteCacheBytes, R);
    v("compresso.chunkBytes", c.compresso.chunkBytes, R);
    v("compresso.mcProcNs", c.compresso.mcProcNs, R);
    v("compresso.blockDecompressNs", c.compresso.blockDecompressNs, R);
    v("compresso.llcVictimLatNs", c.compresso.llcVictimLatNs, R);
    v("compresso.cteVictimInLlc", c.compresso.cteVictimInLlc, R);
    v("compresso.llcVictimBytes", c.compresso.llcVictimBytes, R);
    v("compresso.repackBlockFraction", c.compresso.repackBlockFraction,
      R);

    v("osMc.cteCacheBytes", c.osMc.cteCacheBytes, R);
    v("osMc.mcProcNs", c.osMc.mcProcNs, R);
    v("osMc.embedCtes", c.osMc.embedCtes, R);
    v("osMc.fastDeflate", c.osMc.fastDeflate, R);
    v("osMc.dramBudgetBytes", c.osMc.dramBudgetBytes, R);
    v("osMc.ml1TargetPages", c.osMc.ml1TargetPages, R);
    v("osMc.freeListLow", c.osMc.freeListLow, R);
    v("osMc.freeListCritical", c.osMc.freeListCritical, R);
    v("osMc.evictBatch", c.osMc.evictBatch, R);
    v("osMc.migrationBufferEntries", c.osMc.migrationBufferEntries, R);
    v("osMc.migrationGBs", c.osMc.migrationGBs, R);
    v("osMc.recencySampleP", c.osMc.recencySampleP, R);
    v("osMc.ptb.managedDramBytes", c.osMc.ptb.managedDramBytes, R);
    v("osMc.ptb.physPages", c.osMc.ptb.physPages, R);
    v("osMc.faults.ml2BitFlipRate", c.osMc.faults.ml2BitFlipRate, R);
    v("osMc.faults.cteBitFlipRate", c.osMc.faults.cteBitFlipRate, R);
    v("osMc.faults.ptbBitFlipRate", c.osMc.faults.ptbBitFlipRate, R);
    v("osMc.faults.transientFraction", c.osMc.faults.transientFraction,
      R);
    v("osMc.faults.seed", c.osMc.faults.seed, R);

    v("dramBudgetFraction", c.dramBudgetFraction, R);
    v("placementAccesses", c.placementAccesses, S);
    v("warmAccesses", c.warmAccesses, R);
    v("measureAccesses", c.measureAccesses, R);
    v("statsInterval", c.statsInterval, R);
    v("sampleWindows", c.sampleWindows, R);
    v("sampleWindowAccesses", c.sampleWindowAccesses, R);
    v("sampleWarmAccesses", c.sampleWarmAccesses, R);
    // Tenant knobs shape the memcloud access stream (harmless noise in
    // the checkpoint key of every other workload, which ignores them).
    v("tenants", c.tenants, S);
    v("tenantChurn", c.tenantChurn, S);
    v("tenantZipf", c.tenantZipf, S);
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

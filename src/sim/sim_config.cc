#include "sim/sim_config.hh"

#include <cstdio>
#include <string>

#include "sim/sim_result.hh"
#include "tmcc/cte_buffer.hh"

namespace tmcc
{

// Tripwire for the schemas: a member added to SimConfig, SimResult or
// one of their parts changes these sizes and stops the build until it is
// listed in visitFields() (and the size here is updated).  Sizes are
// those of libstdc++ on an LP64 target.
#if defined(__GLIBCXX__) && defined(__LP64__)
static_assert(sizeof(HierarchyConfig) == 56, "update visitFields()");
static_assert(sizeof(DramConfig) == 112, "update visitFields()");
static_assert(sizeof(InterleaveConfig) == 24, "update visitFields()");
static_assert(sizeof(CompressoConfig) == 64, "update visitFields()");
static_assert(sizeof(PtbCodecConfig) == 16, "update visitFields()");
static_assert(sizeof(FaultConfig) == 40, "update visitFields()");
static_assert(sizeof(OsMcConfig) == 144, "update visitFields()");
static_assert(sizeof(SimConfig) == 608, "update visitFields()");
static_assert(sizeof(SampleMetric) == 48, "update visitFields()");
static_assert(sizeof(EpochStat) == 96, "update visitFields()");
static_assert(sizeof(TenantStat) == 96, "update visitFields()");
static_assert(sizeof(SimResult) == 552, "update visitFields()");
#endif

SimConfig
SimConfig::scaledDefault()
{
    SimConfig cfg;
    cfg.scale = 0.25;           // graph footprints ~115MB
    cfg.tlbEntries = 1024;      // reach 4MB
    cfg.hierarchy.l3Bytes = 2 * 1024 * 1024;
    // CTE caches keep their Table III sizes; only footprints shrink,
    // so the reach hierarchy (TMCC 32MB = 4x Compresso 8MB ~ TLB 4MB)
    // is preserved at a gentler footprint/reach ratio.
    cfg.compresso.cteCacheBytes = 128 * 1024; // reach 8MB
    cfg.compresso.llcVictimBytes = 256 * 1024;
    cfg.osMc.cteCacheBytes = 32 * 1024;       // reach 16MB
    cfg.osMc.freeListLow = 1000;
    cfg.osMc.freeListCritical = 750;
    // The 1% Recency List sampling of §IV-B assumes ML1 >> hot set so
    // stale ordering is harmless; with reaches scaled down ~400x the
    // sampling rate scales up to keep the ordering quality comparable.
    cfg.osMc.recencySampleP = 0.10;
    cfg.placementAccesses = 300'000;
    cfg.warmAccesses = 200'000;
    cfg.measureAccesses = 300'000;
    return cfg;
}

const char *
archName(Arch arch)
{
    switch (arch) {
      case Arch::NoCompression: return "no-compression";
      case Arch::Compresso: return "compresso";
      case Arch::Barebone: return "os-inspired-barebone";
      case Arch::BarebonePlusMl1: return "barebone+ml1opt";
      case Arch::BarebonePlusMl2: return "barebone+ml2opt";
      case Arch::Tmcc: return "tmcc";
    }
    return "?";
}

Status
SimConfig::validate() const
{
    const auto bad = [](const std::string &msg) {
        return Status::invalidArgument(msg);
    };
    const auto real = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return std::string(buf);
    };
    if (static_cast<unsigned>(arch) > static_cast<unsigned>(Arch::Tmcc))
        return bad("arch " + std::to_string(static_cast<unsigned>(arch)) +
                   " out of range");
    // Written so that NaN fails too.
    if (!(scale >= kMinScale && scale <= kMaxScale))
        return bad("scale " + real(scale) + " outside [" +
                   real(kMinScale) + ", " + real(kMaxScale) + "]");
    if (cores == 0 || cores > kMaxCores)
        return bad("cores " + std::to_string(cores) + " outside [1, " +
                   std::to_string(kMaxCores) + "]");
    if (cteBufferEntries == 0 || cteBufferEntries > CteBuffer::maxEntries)
        return bad("cteBufferEntries " + std::to_string(cteBufferEntries) +
                   " outside [1, " + std::to_string(CteBuffer::maxEntries) +
                   "]");

    // Interval-sampling geometry (--sample / --stats-interval).
    if (sampleWindows == 0) {
        if (sampleWindowAccesses != 0 || sampleWarmAccesses != 0)
            return bad("sample window/warm-up sizes set but the sample "
                       "window count is zero");
        return Status::okStatus();
    }
    if (sampleWindowAccesses == 0)
        return bad("sample window size must be positive");
    const std::uint64_t per_window =
        sampleWindowAccesses + sampleWarmAccesses;
    if (per_window < sampleWindowAccesses || // wrapped around
        sampleWindows > measureAccesses / per_window)
        return bad("sampling needs windows x (window + warm-up) accesses "
                   "<= measure accesses (" +
                   std::to_string(sampleWindows) + " x " +
                   std::to_string(per_window) + " > " +
                   std::to_string(measureAccesses) + ")");
    if (statsInterval > 0 && statsInterval < sampleWindowAccesses)
        return bad("--stats-interval must be at least the sample window "
                   "size (epochs cannot be finer than the detailed "
                   "windows)");
    return Status::okStatus();
}

} // namespace tmcc

/**
 * @file
 * The OS-inspired hardware memory compression architecture of §IV, with
 * TMCC's two optimizations of §V layered on as configuration:
 *
 *   - ML1: hot pages in full 4KB DRAM frames, tracked by a sampled
 *     Recency List; page-level 8B CTEs; 64KB CTE cache (32KB reach per
 *     64B CTE block, Table III).
 *   - ML2: cold pages Deflate-compressed into best-fit sub-chunks
 *     carved from super-chunks (Fig. 3c); graceful grow/shrink against
 *     the ML1 free list; background ML2->ML1 migration through an
 *     8-entry 32KB buffer (§VI).
 *
 *   TMCC optimization A (embedCtes): compressed PTBs carry truncated
 *   CTEs; requests arriving with an embedded CTE trigger a speculative
 *   DRAM data access in parallel with the CTE verification fetch
 *   (Fig. 8/11); mismatches re-access serially and PTBs are lazily
 *   updated.
 *
 *   TMCC optimization B (fastDeflate): ML2 uses the memory-specialized
 *   ASIC Deflate timing; the barebone design pays IBM-class latency.
 */

#ifndef TMCC_TMCC_OS_MC_HH
#define TMCC_TMCC_OS_MC_HH

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "compress/deflate_timing.hh"
#include "fault/fault_injector.hh"
#include "mc/cte.hh"
#include "mc/cte_cache.hh"
#include "mc/free_list.hh"
#include "mc/mem_controller.hh"
#include "mc/page_profile.hh"
#include "mc/recency_list.hh"
#include "tmcc/ptb_codec.hh"
#include "vm/phys_mem.hh"

namespace tmcc
{

/** Configuration of the OS-inspired MC (barebone or full TMCC). */
struct OsMcConfig
{
    std::size_t cteCacheBytes = 64 * 1024; //!< Table III
    double mcProcNs = 1.0;

    bool embedCtes = true;   //!< TMCC ML1 optimization (§V-A)
    bool fastDeflate = true; //!< TMCC ML2 optimization (§V-B)

    /** Target DRAM usage for data (Table IV columns B/C). */
    std::uint64_t dramBudgetBytes = 512ULL << 20;

    /** Initial-placement cap on ML1 pages (the iso-usage solve);
     * defaults to unbounded (fill until the free-list floor). */
    std::uint64_t ml1TargetPages = ~0ULL;

    /** ML1 free list watermarks (§VI). */
    std::size_t freeListLow = 4000;
    std::size_t freeListCritical = 3000;
    std::size_t evictBatch = 32; //!< max evictions per maintenance pass

    unsigned migrationBufferEntries = 8; //!< 32KB buffer (§VI)

    /**
     * Bandwidth share available to background page migrations (GB/s).
     * §VI: migrations are lower priority than demand, use at most 10
     * read/write queue slots, and put only the written rank into write
     * mode -- so they consume a bounded slice of channel bandwidth
     * without blocking demand reads.
     */
    double migrationGBs = 20.0;

    double recencySampleP = 0.01;

    PtbCodecConfig ptb; //!< truncation geometry (§V-A5)

    FaultConfig faults; //!< bit-flip injection (off by default)
};

/** The OS-inspired / TMCC memory controller. */
class OsInspiredMc : public MemController
{
  public:
    OsInspiredMc(DramSystem &dram, const PageInfoProvider &info,
                 const PhysMem &phys_mem, const OsMcConfig &cfg);

    /**
     * Initial placement (§VI warm-up): pages are presented hottest
     * first; ML1 fills until the free list would hit its low watermark,
     * the rest compress into ML2.
     */
    void placePage(Ppn ppn);

    McReadResponse read(const McReadRequest &req) override;
    void writeback(Addr paddr, Tick when, bool line_compressed) override;
    void functionalTouch(Ppn ppn, bool is_write, Tick now) override;

    std::uint64_t dramUsedBytes() const override;

    // --- PTB / embedded-CTE interface used by the pipeline ---

    /** Embedded-CTE view of one PTB fetched by the walker. */
    struct PtbView
    {
        bool compressed = false;
        std::array<Ppn, ptesPerPtb> ppns{};
        std::array<bool, ptesPerPtb> present{};
        std::array<bool, ptesPerPtb> hasCte{};
        std::array<std::uint64_t, ptesPerPtb> cte{};
    };

    /**
     * What the compressed PTB at `ptb_addr` currently carries.  The
     * first fetch compresses the PTB fresh (current CTEs); afterwards
     * the stored values only change via lazy updates, so they go stale
     * when pages migrate (§V-A3).
     */
    PtbView ptbView(Addr ptb_addr);

    /** Lazy PTB CTE update at response time (§V-A3). */
    void lazyUpdatePtb(Addr ptb_addr, Ppn ppn, std::uint64_t cte);

    /** Current truncated CTE of a page (for verification in tests). */
    std::uint64_t truncatedCte(Ppn ppn);

    /** Whether a page currently sits in ML2. */
    bool inMl2(Ppn ppn);

    CteCache &cteCache() { return cteCache_; }
    RecencyList &recency() { return recency_; }
    const Ml1FreeList &ml1FreeList() const { return ml1Free_; }
    const PtbCodec &ptbCodec() const { return codec_; }

    std::uint64_t ml2Accesses() const { return ml2Reads_.value(); }

    /** Bytes moved by background migrations/evictions. */
    std::uint64_t backgroundBytes() const { return backgroundBytes_; }

    /** Times the usage target had to be overrun (incompressible data
     * exceeding the budget; the design then simply saves less). */
    std::uint64_t budgetOverruns() const
    {
        return budgetOverruns_.value();
    }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    PageCte &cte(Ppn ppn);

    Addr cteDramAddr(Ppn ppn) const;
    Addr ml1BlockAddr(const PageCte &c, Addr paddr) const;

    /** Serve a read that hits ML1. */
    McReadResponse readMl1(const McReadRequest &req, PageCte &c);

    /** Serve a read that hits ML2: decompress + background migration. */
    McReadResponse readMl2(const McReadRequest &req, Ppn ppn, PageCte &c);

    /** Pop an ML1 frame, running eviction maintenance as needed. */
    DramFrame popMl1Frame(Tick when);

    /** Evict cold ML1 pages into ML2 until the list recovers. */
    void maintainFreeList(Tick when);

    /** Outcome of trying to push one page into ML2. */
    enum class EvictOutcome
    {
        Evicted,
        Incompressible,
        NoSpace,
    };

    /** Move one page to ML2. */
    EvictOutcome evictToMl2(Ppn ppn, Tick when);

    /** Migrate an ML2 page into ML1 (background). */
    void migrateToMl1(Ppn ppn, PageCte &c, Tick start);

    Tick deflateDecompressToOffset(const PageProfile &prof,
                                   std::size_t offset) const;
    Tick deflateCompressLatency(const PageProfile &prof) const;

    const PageInfoProvider &info_;
    const PhysMem &physMem_;
    OsMcConfig cfg_;
    PtbCodec codec_;
    FaultInjector injector_;
    CteCache cteCache_;
    Ml1FreeList ml1Free_;
    Ml2FreeLists ml2Free_;
    RecencyList recency_;

    /** Grow the Ppn-indexed tables to cover `ppn`. */
    void ensureTables(Ppn ppn)
    {
        if (ppn >= cteTable_.size()) {
            cteTable_.resize(ppn + 1);
            ml2Location_.resize(ppn + 1);
        }
    }

    // Dense Ppn-indexed page metadata.  Physical page numbers are
    // compact (PhysMem hands out frames from a bounded pool), so the
    // measured-loop lookups on every read/writeback are a direct index
    // instead of a hash probe.  Presence lives in PageCte::valid /
    // Ml2Slot::valid.
    std::vector<PageCte> cteTable_;
    struct Ml2Slot
    {
        SubChunk sc;
        bool valid = false;
    };
    std::vector<Ml2Slot> ml2Location_;

    /** Shadow of the embedded CTE values stored in one compressed PTB. */
    struct PtbShadow
    {
        Addr ptbAddr = invalidAddr;
        std::array<bool, ptesPerPtb> hasCte{};
        std::array<std::uint64_t, ptesPerPtb> cte{};
    };

    /** Shadow of the PTB at `ptb_addr`; nullptr if never embedded. */
    PtbShadow *findPtbShadow(Addr ptb_addr);

    /** Start the shadow of a PTB that has none yet. */
    PtbShadow &addPtbShadow(Addr ptb_addr);

    /** File shadow `i` in the index (which must have room). */
    void indexPtbShadow(std::uint32_t i);

    // PTB shadows in first-fetch order, found through an open-addressed
    // index of their positions (linear probing, at most half full,
    // never deleted from).  ptbView() runs on every page walk, so this
    // is one hash and a short probe.  A deque grows without copying,
    // which keeps peak memory at about one entry per embedded PTB.
    static constexpr std::uint32_t noShadow = ~std::uint32_t{0};
    std::deque<PtbShadow> ptbShadows_;
    std::vector<std::uint32_t> ptbShadowIndex_;

    /** Migration buffer: completion time of each in-flight transfer. */
    std::vector<Tick> migrationSlots_;

    MemDeflateTiming fastTiming_;
    IbmDeflateTiming ibmTiming_;

    std::uint64_t ml1Pages_ = 0;

    /** Background-migration bandwidth cursor (token bucket in time). */
    Tick migCursor_ = 0;
    std::uint64_t backgroundBytes_ = 0;

    /** Next frame id used when the budget must be overrun. */
    DramFrame nextExtraFrame_ = 0;

    Counter reads_, writebacks_, ml1Reads_, ml2Reads_;
    Counter parallelAccesses_, mismatches_, serialFetches_;
    Counter migrationsIn_, migrationsOut_, incompressibleRetained_;
    Counter migrationStalls_, cteDramFetches_;
    Counter ptbCompressedFetches_, ptbIncompressibleFetches_;
    Counter lazyPtbUpdates_, budgetOverruns_;
    Counter corruptionDetected_, corruptionRecovered_;
    Counter corruptionUnrecoverable_, ptbDecodeRejects_;
};

} // namespace tmcc

#endif // TMCC_TMCC_OS_MC_HH

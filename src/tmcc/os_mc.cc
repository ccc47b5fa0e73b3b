#include "tmcc/os_mc.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"
#include "common/trace.hh"

namespace tmcc
{

namespace
{

/** The linear page-level CTE table sits above the data region. */
constexpr Addr cteTableBase = 1ULL << 46;

} // namespace

OsInspiredMc::OsInspiredMc(DramSystem &dram, const PageInfoProvider &info,
                           const PhysMem &phys_mem, const OsMcConfig &cfg)
    : MemController(dram), info_(info), physMem_(phys_mem), cfg_(cfg),
      codec_(cfg.ptb), injector_(cfg.faults),
      cteCache_(cfg.cteCacheBytes,
                /*pages_per_block=*/blockSize / pageCteBytes),
      ml2Free_(ml1Free_), recency_(cfg.recencySampleP),
      migrationSlots_(cfg.migrationBufferEntries, 0)
{
    // Seed ML1 with the DRAM budget worth of 4KB frames.
    ml1Free_.seed(0, cfg.dramBudgetBytes / pageSize);
    nextExtraFrame_ = cfg.dramBudgetBytes / pageSize;

    // Size the dense per-page tables for the whole physical pool up
    // front so the hot path never resizes.
    cteTable_.resize(phys_mem.totalPages());
    ml2Location_.resize(phys_mem.totalPages());
}

PageCte &
OsInspiredMc::cte(Ppn ppn)
{
    ensureTables(ppn);
    if (!cteTable_[ppn].valid)
        placePage(ppn);
    return cteTable_[ppn];
}

Addr
OsInspiredMc::cteDramAddr(Ppn ppn) const
{
    return cteTableBase + ppn * pageCteBytes;
}

Addr
OsInspiredMc::ml1BlockAddr(const PageCte &c, Addr paddr) const
{
    return (c.dramFrame << pageShift) + (paddr & (pageSize - 1));
}

void
OsInspiredMc::placePage(Ppn ppn)
{
    ensureTables(ppn);
    if (cteTable_[ppn].valid)
        return;

    PageCte c;
    c.valid = true;
    const PageProfile &prof = info_.profile(ppn);

    // Hottest-first placement: go to ML1 while under the placement
    // target and frames remain above the low watermark; afterwards
    // compress straight into ML2.
    const bool ml1_has_room = ml1Pages_ < cfg_.ml1TargetPages &&
                              ml1Free_.size() > cfg_.freeListLow;
    if (ml1_has_room || prof.deflateIncompressible()) {
        c.level = PageLevel::ML1;
        c.dramFrame = popMl1Frame(0);
        c.isIncompressible = prof.deflateIncompressible();
        ++ml1Pages_;
        if (!c.isIncompressible)
            recency_.insertHot(ppn);
        else
            incompressibleRetained_.inc();
    } else {
        // Keep the free-list floor intact while ML2 carves chunks out
        // of it: evict ahead of demand (§VI watermarks).
        maintainFreeList(0);
        SubChunk sc;
        const unsigned cls = Ml2FreeLists::classFor(prof.deflateBytes);
        if (cls < subChunkClasses.size() && ml2Free_.alloc(cls, sc)) {
            c.level = PageLevel::ML2;
            c.ml2Addr = sc.dramAddr;
            c.dramFrame = sc.dramAddr >> pageShift;
            ml2Location_[ppn] = {sc, true};
        } else {
            // No class fits (or DRAM exhausted): keep uncompressed,
            // evicting already-placed cold pages if ML1 ran dry.
            c.level = PageLevel::ML1;
            c.dramFrame = popMl1Frame(0);
            c.isIncompressible = true;
            ++ml1Pages_;
            incompressibleRetained_.inc();
        }
    }
    cteTable_[ppn] = c;
}

McReadResponse
OsInspiredMc::read(const McReadRequest &req)
{
    reads_.inc();
    const Ppn ppn = pageNumber(req.paddr);
    PageCte &c = cte(ppn);

    if (req.background) {
        // Prefetch fill: CTE-cache pressure without DRAM contention.
        McReadResponse resp;
        resp.cteCacheHit = cteCache_.lookup(ppn);
        if (!resp.cteCacheHit)
            cteCache_.insert(ppn);
        resp.hitMl2 = c.level == PageLevel::ML2;
        resp.complete = req.when;
        resp.hasCorrectCte = true;
        resp.correctCte = c.truncated(codec_.truncatedCteBits());
        return resp;
    }

    if (c.level == PageLevel::ML1) {
        ml1Reads_.inc();
        recency_.touch(ppn);
        return readMl1(req, c);
    }
    ml2Reads_.inc();
    return readMl2(req, ppn, c);
}

void
OsInspiredMc::functionalTouch(Ppn ppn, bool /*is_write*/, Tick now)
{
    // Fast-forward analogue of read(): keep the translation and
    // placement state hot -- CTE-cache residency, ML1 recency, and the
    // demand-triggered ML2->ML1 migration -- without DRAM timing,
    // demand counters or migration-slot stall bookkeeping.
    PageCte &c = cte(ppn);
    if (!cteCache_.lookup(ppn))
        cteCache_.insert(ppn);
    if (c.level == PageLevel::ML1)
        recency_.touch(ppn);
    else
        migrateToMl1(ppn, c, std::max(now, migCursor_));
}

McReadResponse
OsInspiredMc::readMl1(const McReadRequest &req, PageCte &c)
{
    McReadResponse resp;
    const Ppn ppn = pageNumber(req.paddr);
    const Tick t0 = req.when + nsToTicks(cfg_.mcProcNs);
    const Addr data_addr = ml1BlockAddr(c, req.paddr);
    resp.hasCorrectCte = true;
    resp.correctCte = c.truncated(codec_.truncatedCteBits());

    if (cteCache_.lookup(ppn)) {
        resp.cteCacheHit = true;
        resp.complete = dram_.read(data_addr, t0);
        return resp;
    }

    // CTE cache miss.
    if (cfg_.embedCtes && req.hasEmbeddedCte) {
        // Speculative parallel access (Fig. 11): use the embedded CTE
        // to fetch data while the real CTE is verified from DRAM.  A
        // bit flip in the embedded field is indistinguishable from a
        // stale CTE: the verification fetch catches either and the
        // mismatch path re-accesses serially, so corruption here costs
        // latency, never correctness.
        const Addr spec_frame = injector_.corruptCte(
            req.embeddedCte, codec_.truncatedCteBits());
        const Addr spec_addr =
            (spec_frame << pageShift) + (req.paddr & (pageSize - 1));
        cteDramFetches_.inc();
        const Tick cte_ready = dram_.read(cteDramAddr(ppn), t0);
        const Tick spec_done = dram_.read(spec_addr, t0);
        cteCache_.insert(ppn);

        if (spec_frame == resp.correctCte) {
            parallelAccesses_.inc();
            resp.parallelAccess = true;
            resp.complete = std::max(cte_ready, spec_done);
        } else {
            // Fig. 8c: verification failed; re-access with the correct
            // CTE after both DRAM accesses complete.
            mismatches_.inc();
            resp.embeddedMismatch = true;
            resp.complete = dram_.read(
                data_addr, std::max(cte_ready, spec_done));
        }
        return resp;
    }

    // No embedded CTE: the baseline serial fetch (Fig. 8a).
    serialFetches_.inc();
    resp.serializedNoCte = true;
    cteDramFetches_.inc();
    const Tick cte_ready = dram_.read(cteDramAddr(ppn), t0);
    cteCache_.insert(ppn);
    resp.complete = dram_.read(data_addr, cte_ready);
    return resp;
}

Tick
OsInspiredMc::deflateDecompressToOffset(const PageProfile &prof,
                                        std::size_t offset) const
{
    if (cfg_.fastDeflate) {
        CompressedPage page;
        page.originalSize = pageSize;
        page.sizeBits = static_cast<std::size_t>(prof.deflateBytes) * 8;
        page.lzTokens = prof.lzTokens;
        page.huffmanUsed = prof.huffmanUsed;
        return fastTiming_.decompressLatencyToOffset(page, offset);
    }
    return ibmTiming_.decompressLatencyToOffset(pageSize, offset);
}

Tick
OsInspiredMc::deflateCompressLatency(const PageProfile &prof) const
{
    if (cfg_.fastDeflate) {
        CompressedPage page;
        page.originalSize = pageSize;
        page.sizeBits = static_cast<std::size_t>(prof.deflateBytes) * 8;
        page.lzTokens = prof.lzTokens;
        page.huffmanUsed = prof.huffmanUsed;
        return fastTiming_.timing(page).compressLatency;
    }
    return ibmTiming_.compressLatency(pageSize);
}

McReadResponse
OsInspiredMc::readMl2(const McReadRequest &req, Ppn ppn, PageCte &c)
{
    McReadResponse resp;
    resp.hitMl2 = true;
    Tick t = req.when + nsToTicks(cfg_.mcProcNs);

    // The sub-chunk address comes from the CTE; resolve it first.
    if (cteCache_.lookup(ppn)) {
        resp.cteCacheHit = true;
    } else {
        cteDramFetches_.inc();
        resp.serializedNoCte = true;
        t = dram_.read(cteDramAddr(ppn), t);
        cteCache_.insert(ppn);
    }

    // Migration buffer full => the ML2 access stalls (§VI).
    auto slot = std::min_element(migrationSlots_.begin(),
                                 migrationSlots_.end());
    if (*slot > t) {
        migrationStalls_.inc();
        t = *slot;
    }

    const PageProfile &prof = info_.profile(ppn);

    // Stream the compressed payload from DRAM; the first beat gates the
    // decompressor, the rest overlap with decompression (its pipeline
    // consumes faster than one DDR4 channel supplies) and ride the
    // background-bandwidth share.
    Tick first_beat = dram_.read(c.ml2Addr, t);
    backgroundBytes_ += prof.deflateBytes;

    const std::size_t offset = req.paddr & (pageSize - 1);
    bool zero_refault = false;
    if (injector_.enabled() &&
        injector_.ml2ImageCorrupted(
            static_cast<std::uint64_t>(prof.deflateBytes) * 8)) {
        // The page CRC flags the damage once the streamed decode
        // finishes.  Retry the image read once: transient upsets clear,
        // a damaged stored image does not.
        corruptionDetected_.inc();
        const Tick detected =
            first_beat +
            deflateDecompressToOffset(prof, pageSize - blockSize);
        first_beat = dram_.read(c.ml2Addr, detected);
        backgroundBytes_ += prof.deflateBytes;
        if (injector_.ml2CorruptionTransient()) {
            corruptionRecovered_.inc();
        } else {
            // No retry can help: degrade gracefully by re-faulting the
            // page as zero-filled.  The migration below re-homes it in
            // a fresh ML1 frame, so the corrupt ML2 image is discarded.
            corruptionUnrecoverable_.inc();
            zero_refault = true;
        }
    }

    resp.complete =
        first_beat + deflateDecompressToOffset(
                         prof, zero_refault ? pageSize - blockSize
                                            : offset);

    // Background migration to ML1 (§VI): occupy a buffer slot until the
    // full page has decompressed and written back to a fresh frame.
    const Tick full_page_done = std::max(
        first_beat +
            deflateDecompressToOffset(prof, pageSize - blockSize),
        migCursor_);
    migrateToMl1(ppn, c, full_page_done);
    *slot = std::max(full_page_done, migCursor_);

    if (Tracer *tr = Tracer::active()) {
        tr->complete("ml2_fault", "mc", req.core, ticksToNs(req.when),
                     ticksToNs(resp.complete - req.when));
        tr->complete("deflate_decompress", "compress", req.core,
                     ticksToNs(first_beat),
                     ticksToNs(resp.complete - first_beat));
    }

    resp.hasCorrectCte = true;
    resp.correctCte = c.truncated(codec_.truncatedCteBits());
    return resp;
}

void
OsInspiredMc::migrateToMl1(Ppn ppn, PageCte &c, Tick start)
{
    migrationsIn_.inc();

    // Free the ML2 sub-chunk and take a fresh ML1 frame.
    panicIf(ppn >= ml2Location_.size() || !ml2Location_[ppn].valid,
            "ML2 page without a sub-chunk");
    ml2Free_.free(ml2Location_[ppn].sc);
    ml2Location_[ppn].valid = false;

    const DramFrame frame = popMl1Frame(start);
    c.level = PageLevel::ML1;
    c.dramFrame = frame;
    ++ml1Pages_;

    // The 4KB of block writes go out at background priority through
    // the migration bandwidth share (§VI: capped queue slots, rank-
    // targeted write mode), so they delay migrations, not demand.
    migCursor_ = std::max(migCursor_, start) +
                 nsToTicks(pageSize / cfg_.migrationGBs);
    backgroundBytes_ += pageSize;
    dram_.write(cteDramAddr(ppn), start); // CTE update (posted)
    cteCache_.insert(ppn);
    recency_.insertHot(ppn);
}

DramFrame
OsInspiredMc::popMl1Frame(Tick when)
{
    maintainFreeList(when);
    if (ml1Free_.empty()) {
        // The usage target cannot be met (e.g., incompressible data
        // exceeds it).  Physical DRAM still backs every page, so the
        // design simply saves less than targeted: extend the pool and
        // account the overrun (visible in dramUsedBytes()).
        budgetOverruns_.inc();
        ml1Free_.seed(nextExtraFrame_, 64);
        nextExtraFrame_ += 64;
    }
    return ml1Free_.pop();
}

void
OsInspiredMc::maintainFreeList(Tick when)
{
    if (ml1Free_.size() >= cfg_.freeListLow)
        return;
    std::size_t evicted = 0;
    while (ml1Free_.size() < cfg_.freeListLow &&
           evicted < cfg_.evictBatch && recency_.size() > 0) {
        const Ppn victim = recency_.popColdest();
        switch (evictToMl2(victim, when)) {
          case EvictOutcome::Evicted:
            ++evicted;
            break;
          case EvictOutcome::Incompressible:
            break; // retained in ML1, off the list; try the next page
          case EvictOutcome::NoSpace:
            // ML2 cannot grow right now; put the victim back and stop.
            recency_.insertCold(victim);
            return;
        }
    }
}

OsInspiredMc::EvictOutcome
OsInspiredMc::evictToMl2(Ppn ppn, Tick when)
{
    panicIf(ppn >= cteTable_.size() || !cteTable_[ppn].valid,
            "evicting unplaced page");
    PageCte &c = cteTable_[ppn];
    panicIf(c.level != PageLevel::ML1, "evicting non-ML1 page");

    const PageProfile &prof = info_.profile(ppn);
    const unsigned cls = Ml2FreeLists::classFor(prof.deflateBytes);
    if (prof.deflateIncompressible() || cls >= subChunkClasses.size()) {
        // Retain in ML1, mark incompressible, drop from the Recency
        // List so it is not repeatedly retried (§IV-B).
        c.isIncompressible = true;
        incompressibleRetained_.inc();
        return EvictOutcome::Incompressible;
    }

    SubChunk sc;
    if (!ml2Free_.alloc(cls, sc))
        return EvictOutcome::NoSpace; // DRAM fully committed

    migrationsOut_.inc();

    // Page read + compressed write ride the background share; the
    // read of the victim overlaps the write of the compressed output
    // (different banks/ranks), so only the larger leg serializes.
    migCursor_ = std::max(migCursor_, when) +
                 nsToTicks(pageSize / cfg_.migrationGBs);
    backgroundBytes_ += pageSize + prof.deflateBytes;
    const Tick done = std::max(migCursor_,
                               when + deflateCompressLatency(prof));

    if (Tracer *tr = Tracer::active())
        tr->complete("deflate_compress", "compress",
                     backgroundTid, ticksToNs(when),
                     ticksToNs(done - when));

    ml1Free_.push(c.dramFrame);
    --ml1Pages_;
    c.level = PageLevel::ML2;
    c.ml2Addr = sc.dramAddr;
    c.dramFrame = sc.dramAddr >> pageShift;
    ml2Location_[ppn] = {sc, true};
    dram_.write(cteDramAddr(ppn), done);
    cteCache_.insert(ppn);
    return EvictOutcome::Evicted;
}

void
OsInspiredMc::writeback(Addr paddr, Tick when, bool line_compressed)
{
    writebacks_.inc();
    const Ppn ppn = pageNumber(paddr);
    PageCte &c = cte(ppn);

    // Maintain the compressed-PTB pair bit vector (§V-A4): bit i tracks
    // whether blocks 2i and 2i+1 both use the compressed PTB encoding.
    const unsigned pair = blockInPage(paddr) / 2;
    if (line_compressed)
        c.ptbPairVector |= 1u << pair;
    else
        c.ptbPairVector &= ~(1u << pair);

    if (c.level == PageLevel::ML1) {
        dram_.write(ml1BlockAddr(c, paddr), when);
        if (c.isIncompressible && recency_.maybeReadmit(ppn))
            c.isIncompressible = false;
        return;
    }

    // Rare race: the dirty line outlived its page's eviction to ML2.
    // Bring the page back to ML1 (a store to it is imminent anyway).
    const PageProfile &prof = info_.profile(ppn);
    const Tick back = when + deflateDecompressToOffset(prof, pageSize - 1);
    migrateToMl1(ppn, c, back);
    dram_.write(ml1BlockAddr(c, paddr), back);
}

OsInspiredMc::PtbView
OsInspiredMc::ptbView(Addr ptb_addr)
{
    PtbView view;
    const Ppn ptb_page = pageNumber(ptb_addr);
    if (!physMem_.isPageTablePage(ptb_page))
        return view; // data block fetched by the walker path; no PTEs

    const PtPage &page = physMem_.ptPage(ptb_page);
    const std::size_t first =
        (ptb_addr & (pageSize - 1)) / pteSize;
    const std::uint64_t *ptes = &page[first];

    const PtbAnalysis analysis = codec_.analyze(ptes);
    if (!analysis.compressible) {
        ptbIncompressibleFetches_.inc();
        return view;
    }
    ptbCompressedFetches_.inc();
    view.compressed = true;

    PtbShadow *found = findPtbShadow(ptb_addr);
    const bool fresh = found == nullptr;
    PtbShadow &shadow = fresh ? addPtbShadow(ptb_addr) : *found;

    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        view.present[i] = ptePresent(ptes[i]);
        view.ppns[i] = ptePpn(ptes[i]);
        if (!view.present[i] || i >= analysis.cteSlots)
            continue;
        if (fresh) {
            // First compression of this PTB: embed current CTEs.
            const Ppn data_ppn = view.ppns[i];
            if (data_ppn < cteTable_.size() &&
                cteTable_[data_ppn].valid) {
                shadow.hasCte[i] = true;
                shadow.cte[i] = cteTable_[data_ppn].truncated(
                    codec_.truncatedCteBits());
            }
        }
        view.hasCte[i] = shadow.hasCte[i];
        view.cte[i] = shadow.cte[i];
    }

    if (injector_.enabled() && injector_.config().ptbBitFlipRate > 0.0) {
        // Round-trip the PTB through its real 64B wire image with bit
        // flips injected.  A rejected decode falls back to uncompressed
        // PTB semantics (no embedded CTEs, a full serial walk); the
        // rare CRC escape serves possibly-wrong embedded CTEs, which
        // the §V-A verification fetch catches downstream.
        auto image = codec_.encode(ptes, shadow.hasCte, shadow.cte);
        injector_.corruptPtbImage(image.data(), image.size());
        const auto decoded = codec_.decode(image);
        if (!decoded.ok()) {
            ptbDecodeRejects_.inc();
            return PtbView{};
        }
        for (unsigned i = 0; i < ptesPerPtb; ++i) {
            if (!view.present[i])
                continue;
            view.hasCte[i] = decoded.value().hasCte[i];
            view.cte[i] = decoded.value().cte[i];
        }
    }
    return view;
}

namespace
{

/** Home bucket of a PTB address in a `buckets`-entry index. */
std::size_t
ptbShadowHome(Addr ptb_addr, std::size_t buckets)
{
    return static_cast<std::size_t>(
        ((ptb_addr / ptbBytes) * 0x9e3779b97f4a7c15ull) >>
        (64 - std::countr_zero(buckets)));
}

} // namespace

OsInspiredMc::PtbShadow *
OsInspiredMc::findPtbShadow(Addr ptb_addr)
{
    if (ptbShadowIndex_.empty())
        return nullptr;
    const std::size_t mask = ptbShadowIndex_.size() - 1;
    for (std::size_t b = ptbShadowHome(ptb_addr, ptbShadowIndex_.size());;
         b = (b + 1) & mask) {
        const std::uint32_t i = ptbShadowIndex_[b];
        if (i == noShadow)
            return nullptr;
        if (ptbShadows_[i].ptbAddr == ptb_addr)
            return &ptbShadows_[i];
    }
}

void
OsInspiredMc::indexPtbShadow(std::uint32_t i)
{
    const std::size_t mask = ptbShadowIndex_.size() - 1;
    std::size_t b =
        ptbShadowHome(ptbShadows_[i].ptbAddr, ptbShadowIndex_.size());
    while (ptbShadowIndex_[b] != noShadow)
        b = (b + 1) & mask;
    ptbShadowIndex_[b] = i;
}

OsInspiredMc::PtbShadow &
OsInspiredMc::addPtbShadow(Addr ptb_addr)
{
    ptbShadows_.push_back(PtbShadow{ptb_addr, {}, {}});
    if (2 * ptbShadows_.size() > ptbShadowIndex_.size()) {
        // Double the index and refile every shadow.
        ptbShadowIndex_.assign(
            std::max<std::size_t>(64, 2 * ptbShadowIndex_.size()),
            noShadow);
        for (std::uint32_t i = 0; i < ptbShadows_.size(); ++i)
            indexPtbShadow(i);
    } else {
        indexPtbShadow(static_cast<std::uint32_t>(ptbShadows_.size() - 1));
    }
    return ptbShadows_.back();
}

void
OsInspiredMc::lazyUpdatePtb(Addr ptb_addr, Ppn ppn, std::uint64_t new_cte)
{
    PtbShadow *shadow = findPtbShadow(ptb_addr);
    if (shadow == nullptr)
        return;
    const Ppn ptb_page = pageNumber(ptb_addr);
    if (!physMem_.isPageTablePage(ptb_page))
        return;
    const PtPage &page = physMem_.ptPage(ptb_page);
    const std::size_t first = (ptb_addr & (pageSize - 1)) / pteSize;
    for (unsigned i = 0; i < ptesPerPtb; ++i) {
        if (ptePpn(page[first + i]) == ppn &&
            ptePresent(page[first + i])) {
            shadow->hasCte[i] = true;
            shadow->cte[i] = new_cte;
            lazyPtbUpdates_.inc();
        }
    }
}

std::uint64_t
OsInspiredMc::truncatedCte(Ppn ppn)
{
    return cte(ppn).truncated(codec_.truncatedCteBits());
}

bool
OsInspiredMc::inMl2(Ppn ppn)
{
    return cte(ppn).level == PageLevel::ML2;
}

std::uint64_t
OsInspiredMc::dramUsedBytes() const
{
    return ml1Pages_ * pageSize + ml2Free_.heldChunks() * pageSize +
           recency_.overheadBytes();
}

void
OsInspiredMc::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".reads", reads_.value());
    dump.set(prefix + ".writebacks", writebacks_.value());
    dump.set(prefix + ".ml1_reads", ml1Reads_.value());
    dump.set(prefix + ".ml2_reads", ml2Reads_.value());
    dump.set(prefix + ".parallel_accesses", parallelAccesses_.value());
    dump.set(prefix + ".mismatches", mismatches_.value());
    dump.set(prefix + ".serial_fetches", serialFetches_.value());
    dump.set(prefix + ".migrations_in", migrationsIn_.value());
    dump.set(prefix + ".migrations_out", migrationsOut_.value());
    dump.set(prefix + ".migration_stalls", migrationStalls_.value());
    dump.set(prefix + ".incompressible_retained",
             incompressibleRetained_.value());
    dump.set(prefix + ".cte_dram_fetches", cteDramFetches_.value());
    dump.set(prefix + ".ptb_compressed_fetches",
             ptbCompressedFetches_.value());
    dump.set(prefix + ".ptb_incompressible_fetches",
             ptbIncompressibleFetches_.value());
    dump.set(prefix + ".lazy_ptb_updates", lazyPtbUpdates_.value());
    dump.set(prefix + ".ml1_pages", ml1Pages_);
    dump.set(prefix + ".background_bytes", backgroundBytes_);
    dump.set(prefix + ".budget_overruns", budgetOverruns_.value());
    dump.set(prefix + ".dram_used_bytes", dramUsedBytes());
    dump.set(prefix + ".ml2.corruption_detected",
             corruptionDetected_.value());
    dump.set(prefix + ".ml2.corruption_recovered",
             corruptionRecovered_.value());
    dump.set(prefix + ".ml2.corruption_unrecoverable",
             corruptionUnrecoverable_.value());
    dump.set(prefix + ".cte_mismatch", mismatches_.value());
    dump.set(prefix + ".ptb_decode_rejects", ptbDecodeRejects_.value());
    injector_.dumpStats(dump, prefix + ".faults");
    cteCache_.dumpStats(dump, prefix + ".cte_cache");
    recency_.dumpStats(dump, prefix + ".recency");
    ml1Free_.dumpStats(dump, prefix + ".ml1_free");
    ml2Free_.dumpStats(dump, prefix + ".ml2_free");
}

} // namespace tmcc

/**
 * @file
 * The MC's dedicated CTE cache (§II/III).  It caches 64B CTE *blocks*:
 * under TMCC each block holds eight 8B page-level CTEs (32KB reach per
 * block, Table III); under Compresso one block is a single page's
 * metadata (4KB reach).
 *
 * The cache is indexed by CTE block number = PPN / entriesPerBlock, so
 * page-level translation gets its 8x reach (and the spatial-locality
 * benefit of §IV) purely from the format, exactly as in the paper.
 *
 * Way metadata is structure-of-arrays (contiguous tag / LRU arrays,
 * sets padded to the SIMD vector width; invalid ways carry a sentinel
 * tag no real CTE block number can take) with hot methods defined
 * inline, so the MC-side lookup in the measured loop is a whole-set
 * vector compare through the common/simd.hh probe primitives — same
 * engine, and same bit-identical-to-scalar contract, as Cache and Tlb.
 */

#ifndef TMCC_MC_CTE_CACHE_HH
#define TMCC_MC_CTE_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/simd.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** Set-associative cache of CTE blocks. */
class CteCache : public Stated
{
  public:
    /**
     * @param size_bytes      total capacity (64KB TMCC, 128KB Compresso)
     * @param pages_per_block CTEs covered by one 64B block (8 or 1)
     */
    CteCache(std::size_t size_bytes, unsigned pages_per_block,
             unsigned assoc = 8);

    /** Look up the CTE covering `ppn`; updates LRU. */
    bool
    lookup(Ppn ppn)
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t base = setIndexOf(tag) * wstride_;
        const std::uint64_t m =
            Probe::eqMask(&tags_[base], wstride_, tag);
        if (m) {
            lru_[base + simd::firstWay(m)] = ++lruClock_;
            hits_.inc();
            return true;
        }
        misses_.inc();
        return false;
    }

    /** Probe without side effects. */
    bool
    probe(Ppn ppn) const
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t base = setIndexOf(tag) * wstride_;
        return Probe::eqMask(&tags_[base], wstride_, tag) != 0;
    }

    /** Install the block covering `ppn` (after a DRAM CTE fetch). */
    void
    insert(Ppn ppn)
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t base = setIndexOf(tag) * wstride_;
        // The historical scalar scan stopped at the first way that
        // matched (refresh) or was invalid (victim), else took the
        // running LRU min; the mask math preserves that order.
        std::uint64_t match, inv;
        Probe::eqMask2(&tags_[base], wstride_, tag, invalidTag,
                       match, inv);
        std::size_t victim;
        if (match | inv) {
            const unsigned w = simd::firstWay(match | inv);
            if (match & (std::uint64_t{1} << w)) {
                lru_[base + w] = ++lruClock_;
                return; // already present
            }
            victim = base + w;
        } else {
            victim = base + Probe::minIndex(&lru_[base], wstride_);
        }
        tags_[victim] = tag;
        lru_[victim] = ++lruClock_;
    }

    /** Invalidate the block covering `ppn` (CTE rewritten in DRAM). */
    void
    invalidate(Ppn ppn)
    {
        const std::uint64_t tag = blockOf(ppn);
        const std::size_t base = setIndexOf(tag) * wstride_;
        std::uint64_t m = Probe::eqMask(&tags_[base], wstride_, tag);
        while (m) {
            tags_[base + simd::firstWay(m)] = invalidTag;
            m &= m - 1;
        }
    }

    /** Test-only view of one way's metadata (way < associativity). */
    struct WayView
    {
        std::uint64_t tag;
        std::uint64_t lru;
        bool valid;
    };

    WayView
    wayView(std::size_t set, unsigned way) const
    {
        const std::size_t w = set * wstride_ + way;
        return WayView{tags_[w], lru_[w], tags_[w] != invalidTag};
    }

    std::size_t numSets() const { return sets_; }
    unsigned associativity() const { return assoc_; }
    unsigned pagesPerBlock() const { return pagesPerBlock_; }

    std::uint64_t hits() const { return hits_.value(); }
    std::uint64_t misses() const { return misses_.value(); }

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    /** CTE block covering `ppn` (shift when the geometry allows). */
    std::uint64_t
    blockOf(Ppn ppn) const
    {
        return blockPow2_ ? (ppn >> blockShift_) : (ppn / pagesPerBlock_);
    }

    /** Set holding `block` (mask for power-of-two set counts). */
    std::size_t
    setIndexOf(std::uint64_t block) const
    {
        return static_cast<std::size_t>(
            setsPow2_ ? (block & setMask_) : (block % sets_));
    }

    using Probe = simd::Active;

    /**
     * Sentinel tags.  Real tags are CTE block numbers (PPN divided by
     * pages-per-block), bounded far below 2^63 by the simulated DRAM
     * size, so neither sentinel can collide with a probe key.
     */
    static constexpr std::uint64_t invalidTag = ~std::uint64_t{0};
    static constexpr std::uint64_t padTag = invalidTag ^ 1;

    unsigned pagesPerBlock_;
    bool blockPow2_ = true;
    unsigned blockShift_ = 0;
    std::size_t sets_;
    bool setsPow2_ = true;
    std::uint64_t setMask_ = 0;
    unsigned assoc_;
    unsigned wstride_; //!< assoc_ padded to the vector width

    // Structure-of-arrays way metadata, sets_ x wstride_ flattened
    // (invalid ways hold invalidTag, padding ways padTag + all-ones
    // LRU so no probe or victim scan can pick them).
    std::vector<std::uint64_t> tags_;
    std::vector<std::uint64_t> lru_;
    std::uint64_t lruClock_ = 0;
    Counter hits_, misses_;
};

} // namespace tmcc

#endif // TMCC_MC_CTE_CACHE_HH

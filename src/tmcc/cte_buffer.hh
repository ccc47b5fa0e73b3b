/**
 * @file
 * The per-core CTE Buffer of §V-A3 / Fig. 10: a 64-entry table in L2,
 * keyed by PPN, filled with the CTEs embedded in every compressed PTB
 * the page walker fetches.  When L2 later sees an access whose PPN hits
 * the buffer, the embedded CTE is piggybacked toward the MC so the MC
 * can fetch data and the real CTE from DRAM in parallel.  Responses
 * carry the correct CTE back; a mismatch triggers the lazy PTB update
 * at the recorded PTB physical address.
 *
 * The buffer is a bounded LRU set: every page walk inserts up to eight
 * PPNs and every LLC-bound access looks one up, so each operation is
 * O(1) and the hot methods are defined inline here.  Three parts:
 *
 *  - a small open-addressed PPN -> slot index: a power-of-two table
 *    of slot numbers at most one-eighth full (2 KB for 64 entries), a
 *    Fibonacci-hashed home bucket, linear probing, and backward-shift
 *    delete, so no tombstones build up.  The sparse table makes most
 *    probes end at their first bucket, which keeps the probe loops
 *    predictable; keys are compared in the slot payload;
 *  - an intrusive doubly linked list over slot indices in exact
 *    recency order (head = LRU victim, tail = MRU), closed through one
 *    sentinel node so linking never branches;
 *  - a bump count of used slots: slots fill in order until the buffer
 *    is full, after which each miss recycles the LRU slot.
 *
 * Every insert and every lookup hit takes the next stamp of one clock
 * and moves its entry to the MRU end.  Stamps are unique, so the list
 * head is exactly the argmin-stamp entry the historical full-table
 * scan evicted, and Entry::lru matches it too.
 */

#ifndef TMCC_TMCC_CTE_BUFFER_HH
#define TMCC_TMCC_CTE_BUFFER_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace tmcc
{

/** One CTE Buffer (64 entries, ~1KB total; §V-A6). */
class CteBuffer : public Stated
{
  public:
    /** Largest buffer a config may ask for (the paper's has 64). */
    static constexpr unsigned maxEntries = 65536;

    /** `entries` must be in [1, maxEntries]; fatal otherwise. */
    explicit CteBuffer(unsigned entries = 64);

    struct Entry
    {
        Ppn ppn = 0;
        bool hasCte = false;        //!< some PTB slots carry no CTE
        std::uint64_t cte = 0;      //!< truncated embedded CTE
        Addr ptbAddr = invalidAddr; //!< PTB holding the (stale?) CTE
        bool valid = false;
        std::uint64_t lru = 0;
    };

    /** Insert one key-value pair from a fetched compressed PTB. */
    void
    insert(Ppn ppn, bool has_cte, std::uint64_t cte, Addr ptb_addr)
    {
        inserts_.inc();
        const std::size_t b = probe(ppn);
        std::uint32_t s = index_[b];
        if (s != emptySlot) {
            unlink(s); // resident: refresh in place
        } else if (used_ < slots_.size()) {
            s = used_++;
            index_[b] = s;
        } else {
            // Full: recycle the LRU slot.  Deleting the victim's key
            // may shift `ppn`'s free bucket back, so probe again.
            s = links_[sentinel()].next;
            unlink(s);
            erase(probe(slots_[s].ppn));
            index_[probe(ppn)] = s;
        }
        Entry &e = slots_[s];
        e.ppn = ppn;
        e.hasCte = has_cte;
        e.cte = cte;
        e.ptbAddr = ptb_addr;
        e.valid = true;
        e.lru = ++lruClock_;
        linkMru(s);
    }

    /**
     * Look up by PPN; nullptr on miss.  The returned pointer aliases
     * the entry's slot, which the next insert, updateOnResponse or
     * flush may rewrite — read it immediately (exactly how the
     * pipeline and tests use it).
     */
    const Entry *
    lookup(Ppn ppn)
    {
        const std::uint32_t s = index_[probe(ppn)];
        if (s == emptySlot) {
            misses_.inc();
            return nullptr;
        }
        hits_.inc();
        slots_[s].lru = ++lruClock_;
        unlink(s);
        linkMru(s);
        return &slots_[s];
    }

    /**
     * Response handling (§V-A3): store the correct CTE into the entry;
     * returns the PTB address to lazily update if the entry existed and
     * its CTE was missing or mismatched, else invalidAddr.  Recency is
     * left alone.
     */
    Addr
    updateOnResponse(Ppn ppn, std::uint64_t correct_cte)
    {
        const std::uint32_t s = index_[probe(ppn)];
        if (s == emptySlot)
            return invalidAddr;
        Entry &e = slots_[s];
        const bool stale = !e.hasCte || e.cte != correct_cte;
        e.hasCte = true;
        e.cte = correct_cte;
        if (stale) {
            staleUpdates_.inc();
            return e.ptbAddr;
        }
        return invalidAddr;
    }

    void flush();

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

    /** Index buckets of an `entries`-slot buffer (a power of two). */
    static std::size_t indexBuckets(unsigned entries);

    /**
     * Home bucket of `ppn` in an `entries`-slot buffer's index;
     * exposed so tests can build keys that collide.
     */
    static std::size_t homeBucket(Ppn ppn, unsigned entries);

  private:
    static constexpr std::uint32_t emptySlot = ~std::uint32_t{0};

    /** Fibonacci hashing: the top bits of ppn * 2^64/phi. */
    static std::size_t
    hashHome(Ppn ppn, unsigned shift)
    {
        return static_cast<std::size_t>(
            (ppn * 0x9e3779b97f4a7c15ull) >> shift);
    }

    std::size_t home(Ppn ppn) const { return hashHome(ppn, shift_); }

    /** Bucket holding `ppn`, or the empty bucket ending its chain. */
    std::size_t
    probe(Ppn ppn) const
    {
        std::size_t b = home(ppn);
        while (index_[b] != emptySlot && slots_[index_[b]].ppn != ppn)
            b = (b + 1) & mask_;
        return b;
    }

    /**
     * Free bucket `hole`, then pull back every later key of its probe
     * run whose home is not cyclically in (hole, key's bucket].
     */
    void
    erase(std::size_t hole)
    {
        for (std::size_t b = (hole + 1) & mask_;
             index_[b] != emptySlot; b = (b + 1) & mask_) {
            if (((b - home(slots_[index_[b]].ppn)) & mask_) >=
                ((b - hole) & mask_)) {
                index_[hole] = index_[b];
                hole = b;
            }
        }
        index_[hole] = emptySlot;
    }

    /** The recency list's sentinel node sits after the real slots. */
    std::uint32_t
    sentinel() const
    {
        return static_cast<std::uint32_t>(slots_.size());
    }

    void
    unlink(std::uint32_t s)
    {
        links_[links_[s].prev].next = links_[s].next;
        links_[links_[s].next].prev = links_[s].prev;
    }

    void
    linkMru(std::uint32_t s)
    {
        const std::uint32_t tail = links_[sentinel()].prev;
        links_[s] = {tail, sentinel()};
        links_[tail].next = s;
        links_[sentinel()].prev = s;
    }

    struct Link
    {
        std::uint32_t prev, next;
    };

    std::vector<std::uint32_t> index_; //!< PPN -> slot or emptySlot
    std::size_t mask_;                 //!< index_.size() - 1
    unsigned shift_;                   //!< 64 - log2(index_.size())
    std::vector<Entry> slots_;         //!< payload, one per entry
    std::vector<Link> links_;          //!< recency list + sentinel
    std::uint32_t used_ = 0;           //!< slots [0, used_) are live

    std::uint64_t lruClock_ = 0;
    Counter inserts_, hits_, misses_, staleUpdates_;
};

} // namespace tmcc

#endif // TMCC_TMCC_CTE_BUFFER_HH

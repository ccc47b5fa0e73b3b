/**
 * @file
 * CteBuffer against the historical linear-scan buffer: seeded random
 * streams of PTB-shaped inserts, single inserts, lookups, responses and
 * flushes drive the real buffer and a verbatim scalar replica side by
 * side.  After every operation both must agree on the returned Entry
 * (stamp included), on the updateOnResponse result and on every dumped
 * counter.  Key pools include PPNs that share one hash home bucket,
 * placed at the end of the index so probe runs wrap around, which
 * exercises backward-shift delete on every eviction.
 *
 * Impossible sizes are rejected at construction (death tests).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "tmcc/cte_buffer.hh"

namespace tmcc
{
namespace
{

/** Entry counts under test: tiny, around a 64-wide scan, and large. */
const unsigned kEntries[] = {1, 2, 3, 4, 7, 63, 64, 65, 256};

/** The historical CteBuffer: full scans over one array of entries. */
class RefCteBuffer
{
  public:
    using Entry = CteBuffer::Entry;

    explicit RefCteBuffer(unsigned entries) : entries_(entries) {}

    void
    insert(Ppn ppn, bool has_cte, std::uint64_t cte, Addr ptb_addr)
    {
        ++inserts_;
        Entry *slot = find(ppn);
        if (slot == nullptr) {
            for (Entry &e : entries_) {
                if (!e.valid) {
                    slot = &e;
                    break;
                }
            }
        }
        if (slot == nullptr) {
            slot = &entries_[0];
            for (Entry &e : entries_)
                if (e.lru < slot->lru)
                    slot = &e;
        }
        slot->ppn = ppn;
        slot->hasCte = has_cte;
        slot->cte = cte;
        slot->ptbAddr = ptb_addr;
        slot->valid = true;
        slot->lru = ++lruClock_;
    }

    const Entry *
    lookup(Ppn ppn)
    {
        Entry *e = find(ppn);
        if (e == nullptr) {
            ++misses_;
            return nullptr;
        }
        ++hits_;
        e->lru = ++lruClock_;
        return e;
    }

    Addr
    updateOnResponse(Ppn ppn, std::uint64_t correct_cte)
    {
        Entry *e = find(ppn);
        if (e == nullptr)
            return invalidAddr;
        const bool stale = !e->hasCte || e->cte != correct_cte;
        e->hasCte = true;
        e->cte = correct_cte;
        if (stale) {
            ++staleUpdates_;
            return e->ptbAddr;
        }
        return invalidAddr;
    }

    void
    flush()
    {
        for (Entry &e : entries_)
            e.valid = false;
    }

    void
    dumpStats(StatDump &dump, const std::string &prefix) const
    {
        dump.set(prefix + ".inserts", inserts_);
        dump.set(prefix + ".hits", hits_);
        dump.set(prefix + ".misses", misses_);
        dump.set(prefix + ".stale_updates", staleUpdates_);
    }

  private:
    Entry *
    find(Ppn ppn)
    {
        for (Entry &e : entries_)
            if (e.valid && e.ppn == ppn)
                return &e;
        return nullptr;
    }

    std::vector<Entry> entries_;
    std::uint64_t lruClock_ = 0;
    std::uint64_t inserts_ = 0, hits_ = 0, misses_ = 0, staleUpdates_ = 0;
};

/**
 * PPNs whose home bucket in an `entries`-slot buffer is one of the
 * last two buckets or bucket 0, so their probe runs collide and wrap.
 */
std::vector<Ppn>
collidingPpns(unsigned entries, std::size_t count)
{
    const std::size_t buckets = CteBuffer::indexBuckets(entries);
    std::vector<Ppn> out;
    for (Ppn p = 1; out.size() < count; ++p) {
        const std::size_t h = CteBuffer::homeBucket(p, entries);
        if (h == buckets - 1 || h == buckets - 2 || h == 0)
            out.push_back(p);
    }
    return out;
}

void
expectSameEntry(const CteBuffer::Entry *got, const CteBuffer::Entry *want,
                std::size_t op)
{
    ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
    if (got == nullptr)
        return;
    EXPECT_EQ(got->ppn, want->ppn) << "op " << op;
    EXPECT_EQ(got->hasCte, want->hasCte) << "op " << op;
    EXPECT_EQ(got->cte, want->cte) << "op " << op;
    EXPECT_EQ(got->ptbAddr, want->ptbAddr) << "op " << op;
    EXPECT_EQ(got->valid, want->valid) << "op " << op;
    EXPECT_EQ(got->lru, want->lru) << "op " << op;
}

/** Drive both buffers with one seeded stream over `keys`. */
void
driveAgainstReference(unsigned entries, const std::vector<Ppn> &keys,
                      std::uint64_t seed, std::size_t ops)
{
    SCOPED_TRACE("entries " + std::to_string(entries) + " seed " +
                 std::to_string(seed));
    CteBuffer buf(entries);
    RefCteBuffer ref(entries);
    std::mt19937_64 rng(seed);
    auto pick = [&] { return keys[rng() % keys.size()]; };
    // Small CTE alphabet so responses are often (but not always) fresh.
    auto cteOf = [&] { return rng() % 4; };

    for (std::size_t op = 0; op < ops; ++op) {
        const unsigned kind = rng() % 100;
        if (kind < 35) {
            // One compressed PTB: in-order inserts of the present PTEs,
            // sometimes repeating a PPN within the block.
            const Addr ptb = (rng() % 4096) * blockSize;
            Ppn ppns[ptesPerPtb];
            for (unsigned i = 0; i < ptesPerPtb; ++i) {
                ppns[i] = (i > 0 && rng() % 8 == 0) ? ppns[rng() % i]
                                                    : pick();
                if (rng() % 6 == 0)
                    continue; // not present
                const bool has = rng() % 5 != 0;
                const std::uint64_t cte = has ? cteOf() : 0;
                buf.insert(ppns[i], has, cte, ptb);
                ref.insert(ppns[i], has, cte, ptb);
            }
        } else if (kind < 45) {
            const Ppn p = pick();
            const bool has = rng() % 2 != 0;
            const std::uint64_t cte = cteOf();
            const Addr ptb = (rng() % 4096) * blockSize;
            buf.insert(p, has, cte, ptb);
            ref.insert(p, has, cte, ptb);
        } else if (kind < 80) {
            const Ppn p = pick();
            expectSameEntry(buf.lookup(p), ref.lookup(p), op);
        } else if (kind < 99) {
            const Ppn p = pick();
            const std::uint64_t cte = cteOf();
            EXPECT_EQ(buf.updateOnResponse(p, cte),
                      ref.updateOnResponse(p, cte))
                << "op " << op;
        } else {
            buf.flush();
            ref.flush();
        }

        StatDump got, want;
        buf.dumpStats(got, "b");
        ref.dumpStats(want, "b");
        ASSERT_EQ(got.all(), want.all()) << "op " << op;
        if (::testing::Test::HasFailure())
            return;
    }
}

TEST(CteBufferProperty, MatchesLinearScanOnDenseKeys)
{
    for (unsigned entries : kEntries) {
        // Twice the capacity: a mix of hits, refreshes and evictions.
        std::vector<Ppn> keys;
        for (Ppn p = 0; p < 2 * entries + 3; ++p)
            keys.push_back(0x1000 + p);
        for (std::uint64_t seed : {1, 2, 3})
            driveAgainstReference(entries, keys, seed * 7919 + entries,
                                  20000);
    }
}

TEST(CteBufferProperty, MatchesLinearScanOnSparseKeys)
{
    for (unsigned entries : kEntries) {
        // Wide random PPNs, mostly misses: the eviction-heavy regime.
        std::mt19937_64 gen(entries);
        std::vector<Ppn> keys;
        for (unsigned i = 0; i < 8 * entries + 8; ++i)
            keys.push_back(gen() >> 24);
        driveAgainstReference(entries, keys, 11 + entries, 20000);
    }
}

TEST(CteBufferProperty, MatchesLinearScanOnCollidingKeys)
{
    for (unsigned entries : kEntries) {
        // Every key homes on one of three buckets around the wrap
        // point, so chains are long and deletes shift across the end.
        const std::vector<Ppn> keys = collidingPpns(entries, entries + 6);
        for (std::uint64_t seed : {5, 6})
            driveAgainstReference(entries, keys, seed * 104729 + entries,
                                  20000);
    }
}

TEST(CteBufferProperty, MatchesLinearScanOnMixedKeys)
{
    for (unsigned entries : kEntries) {
        std::vector<Ppn> keys = collidingPpns(entries, entries / 2 + 2);
        for (Ppn p = 0; p < entries + 2; ++p)
            keys.push_back(0x40000 + p);
        driveAgainstReference(entries, keys, 31 + entries, 20000);
    }
}

TEST(CteBufferProperty, CollidingKeysShareAHome)
{
    for (unsigned entries : kEntries) {
        const std::size_t buckets = CteBuffer::indexBuckets(entries);
        EXPECT_GE(buckets, 2u * entries);
        EXPECT_EQ(buckets & (buckets - 1), 0u);
        for (Ppn p : collidingPpns(entries, 8)) {
            const std::size_t h = CteBuffer::homeBucket(p, entries);
            EXPECT_TRUE(h == buckets - 1 || h == buckets - 2 || h == 0);
        }
    }
}

TEST(CteBufferProperty, EveryResidentKeyStaysFindableWhenFull)
{
    // Fill a large buffer with colliding keys, evict through the whole
    // set twice, and check that exactly the last `entries` survive.
    const unsigned entries = 64;
    const std::vector<Ppn> keys = collidingPpns(entries, 3 * entries);
    CteBuffer buf(entries);
    for (Ppn p : keys)
        buf.insert(p, true, p, p * blockSize);
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const CteBuffer::Entry *e = buf.lookup(keys[i]);
        if (i + entries < keys.size()) {
            EXPECT_EQ(e, nullptr) << i;
        } else {
            ASSERT_NE(e, nullptr) << i;
            EXPECT_EQ(e->cte, keys[i]);
        }
    }
}

TEST(CteBufferDeathTest, RejectsZeroEntries)
{
    EXPECT_EXIT(CteBuffer(0), ::testing::ExitedWithCode(1),
                "at least one entry");
}

TEST(CteBufferDeathTest, RejectsEntriesAboveCap)
{
    EXPECT_EXIT(CteBuffer(CteBuffer::maxEntries + 1),
                ::testing::ExitedWithCode(1), "above the cap");
}

} // namespace
} // namespace tmcc

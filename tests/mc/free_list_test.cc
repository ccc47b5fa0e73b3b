/** Tests for the ML1/ML2 free lists (Fig. 3) and Compresso chunks. */

#include <chrono>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "mc/free_list.hh"

namespace tmcc
{
namespace
{

TEST(Ml1FreeList, SeedPopPush)
{
    Ml1FreeList list;
    list.seed(100, 10);
    EXPECT_EQ(list.size(), 10u);
    EXPECT_EQ(list.pop(), 100u); // ascending pops
    EXPECT_EQ(list.pop(), 101u);
    list.push(100);
    EXPECT_EQ(list.pop(), 100u); // LIFO
}

TEST(SubChunkClasses, FragmentFree)
{
    // (4KB * M) mod N == 0 for every class (§IV-B).
    for (const auto &c : subChunkClasses) {
        EXPECT_EQ((pageSize * c.chunksM) % c.subChunksN, 0u);
        EXPECT_EQ(pageSize * c.chunksM / c.subChunksN, c.bytes);
    }
}

TEST(Ml2FreeLists, ClassForSelectsSmallestFit)
{
    EXPECT_EQ(Ml2FreeLists::classFor(1), 0u);       // 256B
    EXPECT_EQ(Ml2FreeLists::classFor(256), 0u);
    EXPECT_EQ(Ml2FreeLists::classFor(257), 1u);     // 512B
    EXPECT_EQ(Ml2FreeLists::classFor(1500), 4u);    // 1536B
    EXPECT_EQ(Ml2FreeLists::classFor(3072), 6u);
    EXPECT_EQ(Ml2FreeLists::classFor(3073),
              subChunkClasses.size()); // no class fits
}

TEST(Ml2FreeLists, AllocGrowsFromMl1)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk sc;
    ASSERT_TRUE(ml2.alloc(4, sc)); // 1536B class: M=3, N=8
    EXPECT_EQ(ml1.size(), 13u);    // 3 chunks consumed
    EXPECT_EQ(ml2.heldChunks(), 3u);
    EXPECT_EQ(ml2.liveBytes(), 1536u);
}

TEST(Ml2FreeLists, SubChunksDontOverlap)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> subs;
    for (int i = 0; i < 8; ++i) {
        SubChunk sc;
        ASSERT_TRUE(ml2.alloc(4, sc)); // all 8 slots of one super-chunk
        subs.push_back(sc);
    }
    // Addresses must be distinct and 1536B apart within the frames.
    for (std::size_t i = 0; i < subs.size(); ++i)
        for (std::size_t j = i + 1; j < subs.size(); ++j)
            EXPECT_GE(
                std::max(subs[i].dramAddr, subs[j].dramAddr) -
                    std::min(subs[i].dramAddr, subs[j].dramAddr),
                1536u);
    // Still only one super-chunk worth of frames consumed.
    EXPECT_EQ(ml2.heldChunks(), 3u);
}

TEST(Ml2FreeLists, EmptySuperChunkReturnsToMl1)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk a, b;
    ASSERT_TRUE(ml2.alloc(5, a)); // 2048B: M=1, N=2
    ASSERT_TRUE(ml2.alloc(5, b));
    EXPECT_EQ(ml1.size(), 15u);
    ml2.free(a);
    EXPECT_EQ(ml1.size(), 15u); // super-chunk still half used
    ml2.free(b);
    EXPECT_EQ(ml1.size(), 16u); // returned to ML1 (§IV-B)
    EXPECT_EQ(ml2.heldChunks(), 0u);
}

TEST(Ml2FreeLists, AllocFailsWhenMl1Dry)
{
    Ml1FreeList ml1;
    ml1.seed(0, 2);
    Ml2FreeLists ml2(ml1);
    SubChunk sc;
    // 768B class needs M=3 chunks; only 2 available.
    EXPECT_FALSE(ml2.alloc(2, sc));
    // 512B class needs 1 chunk: fine.
    EXPECT_TRUE(ml2.alloc(1, sc));
}

TEST(Ml2FreeLists, FreedSlotTracksAtTop)
{
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    SubChunk a, b;
    ASSERT_TRUE(ml2.alloc(1, a)); // 512B: N=8
    ASSERT_TRUE(ml2.alloc(1, b));
    ml2.free(a);
    // Next alloc reuses the freed slot (top of list, §IV-B).
    SubChunk c;
    ASSERT_TRUE(ml2.alloc(1, c));
    EXPECT_EQ(c.dramAddr, a.dramAddr);
}

TEST(Ml2FreeLists, PopOrderUnaffectedByReturnedSuperChunks)
{
    // Returning a super-chunk leaves tombstone entries in the class
    // list; allocation must skip them and still honour LIFO order.
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> a(8), b(8);
    for (auto &sc : a)
        ASSERT_TRUE(ml2.alloc(1, sc)); // 512B: M=1, N=8
    for (auto &sc : b)
        ASSERT_TRUE(ml2.alloc(1, sc));
    // Free all of super-chunk A: it returns to ML1 leaving 7 dead
    // entries below the top of the class list.
    for (auto &sc : a)
        ml2.free(sc);
    EXPECT_EQ(ml2.heldChunks(), 1u);
    // Free one B slot; the next alloc must reuse exactly that slot.
    ml2.free(b[3]);
    SubChunk c;
    ASSERT_TRUE(ml2.alloc(1, c));
    EXPECT_EQ(c.dramAddr, b[3].dramAddr);
    EXPECT_EQ(c.superChunk, b[3].superChunk);
    // With no live free slot left, the next alloc discards the
    // tombstones and carves a fresh super-chunk from ML1.
    EXPECT_EQ(ml2.freeSlotCount(1), 0u);
    SubChunk d;
    ASSERT_TRUE(ml2.alloc(1, d));
    EXPECT_EQ(ml2.heldChunks(), 2u);
    EXPECT_NE(d.superChunk, c.superChunk);
}

TEST(Ml2FreeLists, ChurnStormKeepsInvariantsAndStaysLinear)
{
    // Adversarial tenant-exit shape: fully allocate many super-chunks,
    // free slots 1..7 of each (a huge free-slot list), then free the
    // last slot of each so every free returns a super-chunk.  The old
    // implementation scanned the whole class list per return (O(n^2),
    // ~70s at this scale); the lazy-tombstone scheme runs in ~150ms,
    // so the bound holds even under sanitizers.
    const auto start = std::chrono::steady_clock::now();

    constexpr std::uint64_t superChunksN = 150000;
    Ml1FreeList ml1;
    ml1.seed(0, superChunksN);
    Ml2FreeLists ml2(ml1);

    std::vector<SubChunk> subs(superChunksN * 8);
    for (auto &sc : subs)
        ASSERT_TRUE(ml2.alloc(1, sc)); // 512B: M=1, N=8
    EXPECT_EQ(ml2.heldChunks(), superChunksN);
    EXPECT_EQ(ml2.liveBytes(), superChunksN * 8 * 512);
    EXPECT_EQ(ml2.superChunkCount(), superChunksN);

    for (std::uint64_t s = 0; s < superChunksN; ++s)
        for (unsigned slot = 1; slot < 8; ++slot)
            ml2.free(subs[s * 8 + slot]);
    EXPECT_EQ(ml2.freeSlotCount(1), superChunksN * 7);
    for (std::uint64_t s = 0; s < superChunksN; ++s)
        ml2.free(subs[s * 8]);

    // Everything returned: no leaked super-chunks or chunks.
    EXPECT_EQ(ml2.liveBytes(), 0u);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml2.superChunkCount(), 0u);
    EXPECT_EQ(ml2.freeSlotCount(1), 0u);
    EXPECT_EQ(ml1.size(), superChunksN);

    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    EXPECT_LT(secs, 20.0) << "super-chunk return went quadratic";
}

TEST(Ml2FreeLists, RandomChurnConservesChunks)
{
    constexpr std::uint64_t frames = 4096;
    Ml1FreeList ml1;
    ml1.seed(0, frames);
    Ml2FreeLists ml2(ml1);

    Rng rng(71);
    std::vector<SubChunk> live;
    std::uint64_t live_bytes = 0;
    for (int step = 0; step < 200000; ++step) {
        if (live.empty() || rng.chance(0.55)) {
            const auto cls = static_cast<unsigned>(
                rng.below(subChunkClasses.size()));
            SubChunk sc;
            if (!ml2.alloc(cls, sc))
                continue; // ML1 dry: fine under pressure
            live.push_back(sc);
            live_bytes += subChunkClasses[cls].bytes;
        } else {
            const std::size_t i = rng.below(live.size());
            std::swap(live[i], live.back());
            live_bytes -= subChunkClasses[live.back().sizeClass].bytes;
            ml2.free(live.back());
            live.pop_back();
        }
        // Chunks are conserved between ML1 and ML2 at every step.
        ASSERT_EQ(ml1.size() + ml2.heldChunks(), frames);
        ASSERT_EQ(ml2.liveBytes(), live_bytes);
    }
    for (const auto &sc : live)
        ml2.free(sc);
    EXPECT_EQ(ml2.liveBytes(), 0u);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml2.superChunkCount(), 0u);
    for (unsigned c = 0; c < subChunkClasses.size(); ++c)
        EXPECT_EQ(ml2.freeSlotCount(c), 0u);
    EXPECT_EQ(ml1.size(), frames);
}

TEST(Ml2FreeLists, WideClassUses64BitSlotMask)
{
    // A 64-slot class exercises the top mask bit (1ULL << 63); the old
    // 32-bit mask made any class with subChunksN > 32 undefined.
    Ml1FreeList ml1;
    ml1.seed(0, 16);
    // (4KB * 16) / 64 == 1024: fragment-free.
    Ml2FreeLists ml2(ml1, {{1024, 16, 64}});

    std::vector<SubChunk> subs(64);
    for (auto &sc : subs)
        ASSERT_TRUE(ml2.alloc(0, sc));
    EXPECT_EQ(ml2.heldChunks(), 16u);
    EXPECT_EQ(ml2.superChunkCount(), 1u);
    for (std::size_t i = 0; i < subs.size(); ++i)
        for (std::size_t j = i + 1; j < subs.size(); ++j)
            EXPECT_NE(subs[i].dramAddr, subs[j].dramAddr);
    for (auto &sc : subs)
        ml2.free(sc);
    EXPECT_EQ(ml2.heldChunks(), 0u);
    EXPECT_EQ(ml1.size(), 16u);
}

TEST(Ml2FreeListsDeathTest, RejectsClassesExceedingSlotMask)
{
    Ml1FreeList ml1;
    const std::vector<SubChunkClass> tooWide = {{512, 8, 65}};
    const std::vector<SubChunkClass> zeroSlots = {{512, 1, 0}};
    const std::vector<SubChunkClass> empty;
    EXPECT_DEATH(Ml2FreeLists(ml1, tooWide), "slot mask");
    EXPECT_DEATH(Ml2FreeLists(ml1, zeroSlots), "slot mask");
    EXPECT_DEATH(Ml2FreeLists(ml1, empty), "sub-chunk class");
}

TEST(ChunkFreeList, SeedPopPush)
{
    ChunkFreeList list(512);
    list.seed(0x10000, 4);
    EXPECT_EQ(list.size(), 4u);
    const Addr a = list.pop();
    EXPECT_EQ(a, 0x10000u);
    list.push(a);
    EXPECT_EQ(list.pop(), a);
}

/** The eagerly seeded list SeededFreeList replaced: every seeded entry
 * is stored, pushed in descending order so pops ascend. */
class EagerFreeList
{
  public:
    explicit EagerFreeList(std::uint64_t stride) : stride_(stride) {}

    void
    seed(std::uint64_t base, std::uint64_t count)
    {
        for (std::uint64_t i = count; i-- > 0;)
            entries_.push_back(base + i * stride_);
    }
    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::uint64_t
    pop()
    {
        const std::uint64_t e = entries_.back();
        entries_.pop_back();
        return e;
    }
    void push(std::uint64_t e) { entries_.push_back(e); }

  private:
    std::uint64_t stride_;
    std::vector<std::uint64_t> entries_;
};

/** Drive `list` and the eager list through the same seeded stream of
 * pops, pushes of popped entries and re-seeds of a drained list (as
 * OsInspiredMc's overrun refill does); they must agree at every step. */
void
expectMatchesEagerList(SeededFreeList &list, std::uint64_t stride,
                       std::uint64_t rng_seed)
{
    EagerFreeList eager(stride);
    Rng rng(rng_seed);
    std::uint64_t next_base = 0x40000 * stride;
    list.seed(next_base, 300);
    eager.seed(next_base, 300);

    std::vector<std::uint64_t> held;
    std::uint64_t pops = 0, pushes = 0, reseeds = 0;
    for (int step = 0; step < 50000; ++step) {
        if (eager.empty() && (held.empty() || rng.chance(0.3))) {
            next_base += 1000 * stride;
            const std::uint64_t count = rng.range(1, 64);
            list.seed(next_base, count);
            eager.seed(next_base, count);
            ++reseeds;
        } else if (!eager.empty() && (held.empty() || rng.chance(0.55))) {
            const std::uint64_t e = eager.pop();
            ASSERT_EQ(list.pop(), e) << "step " << step;
            held.push_back(e);
            ++pops;
        } else {
            const std::size_t i = rng.below(held.size());
            std::swap(held[i], held.back());
            list.push(held.back());
            eager.push(held.back());
            held.pop_back();
            ++pushes;
        }
        ASSERT_EQ(list.size(), eager.size()) << "step " << step;
        ASSERT_EQ(list.empty(), eager.empty()) << "step " << step;
    }
    // The stream exercised every path, and the counters saw it all.
    EXPECT_GT(reseeds, 10u);
    EXPECT_GT(pushes, 1000u);
    StatDump dump;
    list.dumpStats(dump, "fl");
    EXPECT_EQ(dump.getRequired("fl.pops"), static_cast<double>(pops));
    EXPECT_EQ(dump.getRequired("fl.pushes"), static_cast<double>(pushes));
    EXPECT_EQ(dump.getRequired("fl.size"), static_cast<double>(eager.size()));
}

TEST(SeededFreeList, Ml1MatchesEagerList)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        Ml1FreeList list;
        expectMatchesEagerList(list, 1, seed);
    }
}

TEST(SeededFreeList, ChunkMatchesEagerList)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        ChunkFreeList list(512);
        expectMatchesEagerList(list, 512, seed);
    }
}

TEST(SeededFreeList, SeedIsLazy)
{
    // An eager list would store 2^40 entries (8 TiB) here.
    constexpr std::uint64_t count = 1ULL << 40;
    ChunkFreeList chunks(512);
    chunks.seed(0, count);
    EXPECT_EQ(chunks.size(), count);
    EXPECT_EQ(chunks.pop(), 0u);
    EXPECT_EQ(chunks.pop(), 512u);
    EXPECT_EQ(chunks.size(), count - 2);

    Ml1FreeList frames;
    frames.seed(7, count);
    EXPECT_EQ(frames.size(), count);
    EXPECT_EQ(frames.pop(), 7u);
    frames.push(3);
    EXPECT_EQ(frames.size(), count);
    EXPECT_EQ(frames.pop(), 3u);
    EXPECT_EQ(frames.pop(), 8u);
}

TEST(SeededFreeListDeathTest, PopOnEmptyPanics)
{
    Ml1FreeList frames;
    EXPECT_DEATH(frames.pop(), "ML1 free list underflow");
    ChunkFreeList chunks(512);
    chunks.seed(0, 1);
    chunks.pop();
    EXPECT_DEATH(chunks.pop(), "chunk free list underflow");
}

TEST(SeededFreeListDeathTest, SeedOnNonEmptyPanics)
{
    Ml1FreeList frames;
    frames.seed(0, 4);
    EXPECT_DEATH(frames.seed(100, 4), "seed of a non-empty ML1 free list");
    ChunkFreeList chunks(512);
    chunks.push(0x1000); // recycled entries count as well
    EXPECT_DEATH(chunks.seed(0, 4), "seed of a non-empty chunk free list");
}

} // namespace
} // namespace tmcc

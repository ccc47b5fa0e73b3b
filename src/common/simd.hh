/**
 * @file
 * Portable SIMD set-probe primitives for the hot tag/LRU scans in
 * Cache, CteCache and Tlb.
 *
 * Every set-associative structure in the simulator keeps its way
 * metadata as structure-of-arrays u64 rows (tags or packed keys, LRU
 * stamps), padded per set to the vector width so one probe is a few
 * whole-vector compares that never straddle into the next set.  The
 * primitives here are the only code that makes *decisions* over those
 * rows:
 *
 *   - eqMask      which ways match a key (tag probe)
 *   - eqMask2     which ways match either of two keys, one load pass
 *                 (the insert path's fused resident + free-way probe)
 *   - eqMaskAnd   which ways match a key under a bit mask (validity)
 *   - minIndex    earliest way holding the minimum value (LRU victim)
 *   - victimIndex earliest way minimizing (invalid ? 0 : lru) — the
 *                 fused find-or-insert victim scan
 *
 * Each primitive is defined once per ISA as Ops<Isa> with *identical*
 * result contracts: callers get the same answer from every
 * instantiation, bit for bit, which is what keeps SIMD builds
 * metric-identical to the scalar fallback (property-tested in
 * tests/common/simd_test.cc and tests/cache/probe_property_test.cc,
 * cross-build-diffed by the simd-identity CI job).
 *
 * ISA selection is compile-time: AVX2 > SSE2 > NEON (aarch64) > scalar,
 * overridden to scalar by defining TMCC_SIMD_FORCE_SCALAR (the
 * -DTMCC_SIMD=OFF CMake option).  There is no runtime dispatch — the
 * probes sit inside the hottest loop of the simulator and a predictable
 * branch per probe is still a branch.
 */

#ifndef TMCC_COMMON_SIMD_HH
#define TMCC_COMMON_SIMD_HH

#include <cstdint>

#if !defined(TMCC_SIMD_FORCE_SCALAR)
#if defined(__AVX2__) || defined(__SSE2__) || defined(__x86_64__) || \
    defined(_M_X64)
#include <immintrin.h>
#define TMCC_SIMD_X86 1
#elif defined(__aarch64__) && defined(__ARM_NEON)
#include <arm_neon.h>
#define TMCC_SIMD_NEON 1
#endif
#endif

namespace tmcc::simd
{

/**
 * Associativity ceiling of the probe engine: way masks are one u64 (one
 * bit per way), so sets wider than 64 ways are unsupported geometry and
 * rejected at construction by every structure built on these probes.
 */
constexpr unsigned maxWays = 64;

/** First set bit of a nonzero way mask = lowest matching way. */
inline unsigned
firstWay(std::uint64_t mask)
{
    return static_cast<unsigned>(__builtin_ctzll(mask));
}

/**
 * The scalar fallback — also the oracle every vector ISA is
 * property-tested against.  `n` is the padded way count; the contracts
 * below hold for any n in [1, maxWays].
 */
struct ScalarIsa
{
    static constexpr unsigned lanes = 1;
    static constexpr const char *name = "scalar";

    /** Bit i set iff p[i] == key. */
    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; ++i)
            m |= static_cast<std::uint64_t>(p[i] == key) << i;
        return m;
    }

    /** eqMask for two keys over one pass: ma/mb get the way masks. */
    static void
    eqMask2(const std::uint64_t *p, unsigned n, std::uint64_t key_a,
            std::uint64_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        ma = mb = 0;
        for (unsigned i = 0; i < n; ++i) {
            ma |= static_cast<std::uint64_t>(p[i] == key_a) << i;
            mb |= static_cast<std::uint64_t>(p[i] == key_b) << i;
        }
    }

    /** Bit i set iff (p[i] & mask) == key. */
    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; ++i)
            m |= static_cast<std::uint64_t>((p[i] & mask) == key) << i;
        return m;
    }

    /** Earliest index of the minimum of p[0..n). */
    static unsigned
    minIndex(const std::uint64_t *p, unsigned n)
    {
        unsigned best = 0;
        for (unsigned i = 1; i < n; ++i)
            if (p[i] < p[best])
                best = i;
        return best;
    }

    /**
     * Earliest index minimizing (tags[i] == invalid_tag ? 0 : lru[i])
     * — the replacement scan of the fused find-or-insert path, where
     * invalid ways outrank every valid way and ties go to the lowest
     * way.
     */
    static unsigned
    victimIndex(const std::uint64_t *tags, const std::uint64_t *lru,
                unsigned n, std::uint64_t invalid_tag)
    {
        unsigned best = 0;
        std::uint64_t best_score =
            tags[0] == invalid_tag ? 0 : lru[0];
        for (unsigned i = 1; i < n; ++i) {
            const std::uint64_t score =
                tags[i] == invalid_tag ? 0 : lru[i];
            if (score < best_score) {
                best_score = score;
                best = i;
            }
        }
        return best;
    }
};

#if defined(TMCC_SIMD_X86)

/** 128-bit SSE2 path: 2 u64 lanes, u64 compares synthesized from epi32
 * ops (baseline x86-64 has no 64-bit vector compare). */
struct Sse2Isa
{
    static constexpr unsigned lanes = 2;
    static constexpr const char *name = "sse2";

    static __m128i
    eq64(__m128i a, __m128i b)
    {
        const __m128i e = _mm_cmpeq_epi32(a, b);
        return _mm_and_si128(
            e, _mm_shuffle_epi32(e, _MM_SHUFFLE(2, 3, 0, 1)));
    }

    /** Signed 64-bit a > b from epi32 compares (classic SSE2 trick:
     * on equal high halves the borrow of the 64-bit subtract carries
     * the unsigned low-half comparison into the sign bit). */
    static __m128i
    gt64s(__m128i a, __m128i b)
    {
        __m128i r = _mm_and_si128(_mm_cmpeq_epi32(a, b),
                                  _mm_sub_epi64(b, a));
        r = _mm_or_si128(r, _mm_cmpgt_epi32(a, b));
        return _mm_shuffle_epi32(r, _MM_SHUFFLE(3, 3, 1, 1));
    }

    /** Unsigned 64-bit min via sign-bias + gt64s. */
    static __m128i
    minU64(__m128i a, __m128i b)
    {
        const __m128i bias = _mm_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        const __m128i gt =
            gt64s(_mm_xor_si128(a, bias), _mm_xor_si128(b, bias));
        return _mm_or_si128(_mm_and_si128(gt, b),
                            _mm_andnot_si128(gt, a));
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + i));
            m |= static_cast<std::uint64_t>(_mm_movemask_pd(
                     _mm_castsi128_pd(eq64(v, k))))
                 << i;
        }
        return m;
    }

    static void
    eqMask2(const std::uint64_t *p, unsigned n, std::uint64_t key_a,
            std::uint64_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const __m128i ka =
            _mm_set1_epi64x(static_cast<long long>(key_a));
        const __m128i kb =
            _mm_set1_epi64x(static_cast<long long>(key_b));
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + i));
            ma |= static_cast<std::uint64_t>(_mm_movemask_pd(
                      _mm_castsi128_pd(eq64(v, ka))))
                  << i;
            mb |= static_cast<std::uint64_t>(_mm_movemask_pd(
                      _mm_castsi128_pd(eq64(v, kb))))
                  << i;
        }
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const __m128i k = _mm_set1_epi64x(static_cast<long long>(key));
        const __m128i am =
            _mm_set1_epi64x(static_cast<long long>(mask));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2) {
            const __m128i v = _mm_and_si128(
                _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(p + i)),
                am);
            m |= static_cast<std::uint64_t>(_mm_movemask_pd(
                     _mm_castsi128_pd(eq64(v, k))))
                 << i;
        }
        return m;
    }

    static std::uint64_t
    hmin(__m128i v)
    {
        const std::uint64_t lo =
            static_cast<std::uint64_t>(_mm_cvtsi128_si64(v));
        const std::uint64_t hi = static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)));
        return lo < hi ? lo : hi;
    }

    /**
     * Pick the earliest-index minimum from per-lane running (value,
     * index) pairs.  Within a lane, strict less-than updates kept the
     * earliest index; across lanes, equal values break toward the
     * smaller index — together exactly the oracle's scan order.
     */
    static unsigned
    pickLane(__m128i bestv, __m128i besti)
    {
        const std::uint64_t v0 =
            static_cast<std::uint64_t>(_mm_cvtsi128_si64(bestv));
        const std::uint64_t v1 = static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(bestv, bestv)));
        const std::uint64_t i0 =
            static_cast<std::uint64_t>(_mm_cvtsi128_si64(besti));
        const std::uint64_t i1 = static_cast<std::uint64_t>(
            _mm_cvtsi128_si64(_mm_unpackhi_epi64(besti, besti)));
        return static_cast<unsigned>(
            (v1 < v0 || (v1 == v0 && i1 < i0)) ? i1 : i0);
    }

    /** Unsigned 64-bit a < b (lanewise mask). */
    static __m128i
    lt64u(__m128i a, __m128i b)
    {
        const __m128i bias = _mm_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        return gt64s(_mm_xor_si128(b, bias), _mm_xor_si128(a, bias));
    }

    static __m128i
    blend(__m128i a, __m128i b, __m128i take_b)
    {
        return _mm_or_si128(_mm_and_si128(take_b, b),
                            _mm_andnot_si128(take_b, a));
    }

    static unsigned
    minIndex(const std::uint64_t *p, unsigned n)
    {
        __m128i bestv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p));
        __m128i besti = _mm_set_epi64x(1, 0);
        __m128i idx = besti;
        const __m128i step = _mm_set1_epi64x(2);
        for (unsigned i = 2; i < n; i += 2) {
            idx = _mm_add_epi64(idx, step);
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(p + i));
            const __m128i lt = lt64u(v, bestv);
            bestv = blend(bestv, v, lt);
            besti = blend(besti, idx, lt);
        }
        return pickLane(bestv, besti);
    }

    static unsigned
    victimIndex(const std::uint64_t *tags, const std::uint64_t *lru,
                unsigned n, std::uint64_t invalid_tag)
    {
        const __m128i inv =
            _mm_set1_epi64x(static_cast<long long>(invalid_tag));
        __m128i bestv = _mm_set1_epi64x(-1);
        __m128i besti = _mm_setzero_si128();
        __m128i idx = _mm_set_epi64x(1, 0);
        const __m128i step = _mm_set1_epi64x(2);
        for (unsigned i = 0; i < n; i += 2) {
            const __m128i t = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(tags + i));
            const __m128i l = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(lru + i));
            // invalid way -> score 0, else its LRU stamp.
            const __m128i score = _mm_andnot_si128(eq64(t, inv), l);
            const __m128i lt = lt64u(score, bestv);
            bestv = blend(bestv, score, lt);
            besti = blend(besti, idx, lt);
            idx = _mm_add_epi64(idx, step);
        }
        return pickLane(bestv, besti);
    }
};

#endif // TMCC_SIMD_X86

#if defined(TMCC_SIMD_X86) && defined(__AVX2__)

/** 256-bit AVX2 path: 4 u64 lanes with native 64-bit compares. */
struct Avx2Isa
{
    static constexpr unsigned lanes = 4;
    static constexpr const char *name = "avx2";

    static __m256i
    minU64(__m256i a, __m256i b)
    {
        const __m256i bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(a, bias), _mm256_xor_si256(b, bias));
        return _mm256_blendv_epi8(a, b, gt);
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const __m256i k =
            _mm256_set1_epi64x(static_cast<long long>(key));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + i));
            m |= static_cast<std::uint64_t>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(
                         _mm256_cmpeq_epi64(v, k))))
                 << i;
        }
        return m;
    }

    static void
    eqMask2(const std::uint64_t *p, unsigned n, std::uint64_t key_a,
            std::uint64_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const __m256i ka =
            _mm256_set1_epi64x(static_cast<long long>(key_a));
        const __m256i kb =
            _mm256_set1_epi64x(static_cast<long long>(key_b));
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + i));
            ma |= static_cast<std::uint64_t>(
                      _mm256_movemask_pd(_mm256_castsi256_pd(
                          _mm256_cmpeq_epi64(v, ka))))
                  << i;
            mb |= static_cast<std::uint64_t>(
                      _mm256_movemask_pd(_mm256_castsi256_pd(
                          _mm256_cmpeq_epi64(v, kb))))
                  << i;
        }
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const __m256i k =
            _mm256_set1_epi64x(static_cast<long long>(key));
        const __m256i am =
            _mm256_set1_epi64x(static_cast<long long>(mask));
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 4) {
            const __m256i v = _mm256_and_si256(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(p + i)),
                am);
            m |= static_cast<std::uint64_t>(
                     _mm256_movemask_pd(_mm256_castsi256_pd(
                         _mm256_cmpeq_epi64(v, k))))
                 << i;
        }
        return m;
    }

    static std::uint64_t
    hmin(__m256i v)
    {
        const __m128i half =
            Sse2Isa::minU64(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
        return Sse2Isa::hmin(half);
    }

    /** Unsigned 64-bit a < b (lanewise mask). */
    static __m256i
    lt64u(__m256i a, __m256i b)
    {
        const __m256i bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        return _mm256_cmpgt_epi64(_mm256_xor_si256(b, bias),
                                  _mm256_xor_si256(a, bias));
    }

    /** See Sse2Isa::pickLane: earliest-index minimum across lanes. */
    static unsigned
    pickLane(__m256i bestv, __m256i besti)
    {
        alignas(32) std::uint64_t v[4], id[4];
        _mm256_store_si256(reinterpret_cast<__m256i *>(v), bestv);
        _mm256_store_si256(reinterpret_cast<__m256i *>(id), besti);
        unsigned best = 0;
        for (unsigned l = 1; l < 4; ++l)
            if (v[l] < v[best] ||
                (v[l] == v[best] && id[l] < id[best]))
                best = l;
        return static_cast<unsigned>(id[best]);
    }

    static unsigned
    minIndex(const std::uint64_t *p, unsigned n)
    {
        __m256i bestv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(p));
        __m256i besti = _mm256_setr_epi64x(0, 1, 2, 3);
        __m256i idx = besti;
        const __m256i step = _mm256_set1_epi64x(4);
        for (unsigned i = 4; i < n; i += 4) {
            idx = _mm256_add_epi64(idx, step);
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(p + i));
            const __m256i lt = lt64u(v, bestv);
            bestv = _mm256_blendv_epi8(bestv, v, lt);
            besti = _mm256_blendv_epi8(besti, idx, lt);
        }
        return pickLane(bestv, besti);
    }

    static unsigned
    victimIndex(const std::uint64_t *tags, const std::uint64_t *lru,
                unsigned n, std::uint64_t invalid_tag)
    {
        const __m256i inv =
            _mm256_set1_epi64x(static_cast<long long>(invalid_tag));
        __m256i bestv = _mm256_set1_epi64x(-1);
        __m256i besti = _mm256_setzero_si256();
        __m256i idx = _mm256_setr_epi64x(0, 1, 2, 3);
        const __m256i step = _mm256_set1_epi64x(4);
        for (unsigned i = 0; i < n; i += 4) {
            const __m256i t = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(tags + i));
            const __m256i l = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(lru + i));
            // invalid way -> score 0, else its LRU stamp.
            const __m256i score = _mm256_andnot_si256(
                _mm256_cmpeq_epi64(t, inv), l);
            const __m256i lt = lt64u(score, bestv);
            bestv = _mm256_blendv_epi8(bestv, score, lt);
            besti = _mm256_blendv_epi8(besti, idx, lt);
            idx = _mm256_add_epi64(idx, step);
        }
        return pickLane(bestv, besti);
    }
};

#endif // __AVX2__

#if defined(TMCC_SIMD_NEON)

/** 128-bit NEON path (aarch64: native 64-bit compares). */
struct NeonIsa
{
    static constexpr unsigned lanes = 2;
    static constexpr const char *name = "neon";

    static std::uint64_t
    pairMask(uint64x2_t m)
    {
        return (vgetq_lane_u64(m, 0) & 1) |
               ((vgetq_lane_u64(m, 1) & 1) << 1);
    }

    static uint64x2_t
    minU64(uint64x2_t a, uint64x2_t b)
    {
        return vbslq_u64(vcgtq_u64(a, b), b, a);
    }

    static std::uint64_t
    eqMask(const std::uint64_t *p, unsigned n, std::uint64_t key)
    {
        const uint64x2_t k = vdupq_n_u64(key);
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2)
            m |= pairMask(vceqq_u64(vld1q_u64(p + i), k)) << i;
        return m;
    }

    static void
    eqMask2(const std::uint64_t *p, unsigned n, std::uint64_t key_a,
            std::uint64_t key_b, std::uint64_t &ma, std::uint64_t &mb)
    {
        const uint64x2_t ka = vdupq_n_u64(key_a);
        const uint64x2_t kb = vdupq_n_u64(key_b);
        ma = mb = 0;
        for (unsigned i = 0; i < n; i += 2) {
            const uint64x2_t v = vld1q_u64(p + i);
            ma |= pairMask(vceqq_u64(v, ka)) << i;
            mb |= pairMask(vceqq_u64(v, kb)) << i;
        }
    }

    static std::uint64_t
    eqMaskAnd(const std::uint64_t *p, unsigned n, std::uint64_t mask,
              std::uint64_t key)
    {
        const uint64x2_t k = vdupq_n_u64(key);
        const uint64x2_t am = vdupq_n_u64(mask);
        std::uint64_t m = 0;
        for (unsigned i = 0; i < n; i += 2)
            m |= pairMask(vceqq_u64(
                     vandq_u64(vld1q_u64(p + i), am), k))
                 << i;
        return m;
    }

    static std::uint64_t
    hmin(uint64x2_t v)
    {
        const std::uint64_t lo = vgetq_lane_u64(v, 0);
        const std::uint64_t hi = vgetq_lane_u64(v, 1);
        return lo < hi ? lo : hi;
    }

    /** See Sse2Isa::pickLane: earliest-index minimum across lanes. */
    static unsigned
    pickLane(uint64x2_t bestv, uint64x2_t besti)
    {
        const std::uint64_t v0 = vgetq_lane_u64(bestv, 0);
        const std::uint64_t v1 = vgetq_lane_u64(bestv, 1);
        const std::uint64_t i0 = vgetq_lane_u64(besti, 0);
        const std::uint64_t i1 = vgetq_lane_u64(besti, 1);
        return static_cast<unsigned>(
            (v1 < v0 || (v1 == v0 && i1 < i0)) ? i1 : i0);
    }

    static unsigned
    minIndex(const std::uint64_t *p, unsigned n)
    {
        uint64x2_t bestv = vld1q_u64(p);
        const std::uint64_t init[2] = {0, 1};
        uint64x2_t besti = vld1q_u64(init);
        uint64x2_t idx = besti;
        const uint64x2_t step = vdupq_n_u64(2);
        for (unsigned i = 2; i < n; i += 2) {
            idx = vaddq_u64(idx, step);
            const uint64x2_t v = vld1q_u64(p + i);
            const uint64x2_t lt = vcltq_u64(v, bestv);
            bestv = vbslq_u64(lt, v, bestv);
            besti = vbslq_u64(lt, idx, besti);
        }
        return pickLane(bestv, besti);
    }

    static unsigned
    victimIndex(const std::uint64_t *tags, const std::uint64_t *lru,
                unsigned n, std::uint64_t invalid_tag)
    {
        const uint64x2_t inv = vdupq_n_u64(invalid_tag);
        uint64x2_t bestv = vdupq_n_u64(~0ULL);
        uint64x2_t besti = vdupq_n_u64(0);
        const std::uint64_t init[2] = {0, 1};
        uint64x2_t idx = vld1q_u64(init);
        const uint64x2_t step = vdupq_n_u64(2);
        for (unsigned i = 0; i < n; i += 2) {
            const uint64x2_t t = vld1q_u64(tags + i);
            const uint64x2_t l = vld1q_u64(lru + i);
            // invalid way -> score 0, else its LRU stamp.
            const uint64x2_t score = vbicq_u64(l, vceqq_u64(t, inv));
            const uint64x2_t lt = vcltq_u64(score, bestv);
            bestv = vbslq_u64(lt, score, bestv);
            besti = vbslq_u64(lt, idx, besti);
            idx = vaddq_u64(idx, step);
        }
        return pickLane(bestv, besti);
    }
};

#endif // TMCC_SIMD_NEON

// Compile-time ISA selection (widest available wins; see file header).
#if defined(TMCC_SIMD_X86) && defined(__AVX2__)
using Active = Avx2Isa;
#elif defined(TMCC_SIMD_X86)
using Active = Sse2Isa;
#elif defined(TMCC_SIMD_NEON)
using Active = NeonIsa;
#else
using Active = ScalarIsa;
#endif

/** Ways per set after padding to the active vector width. */
constexpr unsigned
padWays(unsigned assoc)
{
    return (assoc + Active::lanes - 1) / Active::lanes * Active::lanes;
}

} // namespace tmcc::simd

#endif // TMCC_COMMON_SIMD_HH

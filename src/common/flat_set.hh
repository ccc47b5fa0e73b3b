/**
 * @file
 * Open-addressing hash set for hot-loop membership tracking.  The
 * measured loop queries/updates per-block bookkeeping (e.g. "was
 * this block prefetched?") on every access; std::unordered_set's
 * node allocation and pointer chasing made exactly this bookkeeping
 * one of the top entries in the measured-loop profile.
 *
 * Linear probing with backward-shift deletion: no tombstones, so the
 * table never degrades under the insert/erase churn this use case
 * produces.  One key value is reserved as the empty-slot sentinel and
 * must never be inserted (asserted in debug builds).
 *
 * Only membership operations are exposed; iteration order would be
 * rehash-dependent, and nothing in the simulator may depend on it
 * (results must be independent of host-side container layout).
 */

#ifndef TMCC_COMMON_FLAT_SET_HH
#define TMCC_COMMON_FLAT_SET_HH

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace tmcc
{

template <class Key, Key EmptySentinel>
class FlatHashSet
{
  public:
    explicit FlatHashSet(std::size_t initial_capacity = 1024)
    {
        std::size_t cap = 16;
        while (cap < initial_capacity)
            cap <<= 1;
        slots_.assign(cap, EmptySentinel);
        mask_ = cap - 1;
    }

    /** Insert `k`; returns true if it was not already present. */
    bool
    insert(Key k)
    {
        assert(k != EmptySentinel);
        if ((size_ + 1) * 10 > slots_.size() * 7)
            grow();
        std::size_t i = hash(k) & mask_;
        while (slots_[i] != EmptySentinel) {
            if (slots_[i] == k)
                return false;
            i = (i + 1) & mask_;
        }
        slots_[i] = k;
        ++size_;
        return true;
    }

    /** Erase `k`; returns true if it was present. */
    bool
    erase(Key k)
    {
        assert(k != EmptySentinel);
        std::size_t i = hash(k) & mask_;
        while (slots_[i] != k) {
            if (slots_[i] == EmptySentinel)
                return false;
            i = (i + 1) & mask_;
        }
        // Backward-shift deletion: pull displaced keys of the probe
        // chain back so lookups never need tombstones.
        std::size_t hole = i;
        std::size_t j = (i + 1) & mask_;
        while (slots_[j] != EmptySentinel) {
            const std::size_t home = hash(slots_[j]) & mask_;
            // Does slots_[j] probe through `hole`?  (Circular range
            // test: home..j wrapping.)
            const bool displaced =
                ((j - home) & mask_) >= ((j - hole) & mask_);
            if (displaced) {
                slots_[hole] = slots_[j];
                hole = j;
            }
            j = (j + 1) & mask_;
        }
        slots_[hole] = EmptySentinel;
        --size_;
        return true;
    }

    bool
    contains(Key k) const
    {
        std::size_t i = hash(k) & mask_;
        while (slots_[i] != EmptySentinel) {
            if (slots_[i] == k)
                return true;
            i = (i + 1) & mask_;
        }
        return false;
    }

    std::size_t size() const { return size_; }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), EmptySentinel);
        size_ = 0;
    }

  private:
    static std::size_t
    hash(Key k)
    {
        // splitmix64 finalizer: full-avalanche, so linear probing sees
        // uniformly spread home slots even for block-aligned keys.
        auto x = static_cast<std::uint64_t>(k);
        x ^= x >> 33;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 33;
        x *= 0xc4ceb9fe1a85ec53ULL;
        x ^= x >> 33;
        return static_cast<std::size_t>(x);
    }

    void
    grow()
    {
        std::vector<Key> old = std::move(slots_);
        slots_.assign(old.size() * 2, EmptySentinel);
        mask_ = slots_.size() - 1;
        size_ = 0;
        for (Key k : old)
            if (k != EmptySentinel)
                insert(k);
    }

    std::vector<Key> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace tmcc

#endif // TMCC_COMMON_FLAT_SET_HH

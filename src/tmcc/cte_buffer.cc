#include "tmcc/cte_buffer.hh"

#include <bit>

#include "common/log.hh"

namespace tmcc
{

std::size_t
CteBuffer::indexBuckets(unsigned entries)
{
    // At most one-eighth full: probe runs stay short and always end.
    return std::bit_ceil(8 * static_cast<std::size_t>(entries));
}

std::size_t
CteBuffer::homeBucket(Ppn ppn, unsigned entries)
{
    return hashHome(ppn, 64 - std::countr_zero(indexBuckets(entries)));
}

CteBuffer::CteBuffer(unsigned entries)
{
    fatalIf(entries == 0, "CteBuffer needs at least one entry");
    fatalIf(entries > maxEntries,
            "CteBuffer entries " + std::to_string(entries) +
                " above the cap of " + std::to_string(maxEntries));
    index_.resize(indexBuckets(entries));
    mask_ = index_.size() - 1;
    shift_ = 64 - std::countr_zero(index_.size());
    slots_.resize(entries);
    links_.resize(entries + 1);
    flush();
}

void
CteBuffer::flush()
{
    index_.assign(index_.size(), emptySlot);
    used_ = 0;
    links_[sentinel()] = {sentinel(), sentinel()};
}

void
CteBuffer::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".inserts", inserts_.value());
    dump.set(prefix + ".hits", hits_.value());
    dump.set(prefix + ".misses", misses_.value());
    dump.set(prefix + ".stale_updates", staleUpdates_.value());
}

} // namespace tmcc

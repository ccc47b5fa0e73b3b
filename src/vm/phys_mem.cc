#include "vm/phys_mem.hh"

#include <algorithm>

#include "common/log.hh"

namespace tmcc
{

PhysMem::PhysMem(std::uint64_t total_pages) : totalPages_(total_pages)
{
    fatalIf(total_pages < 8, "physical memory unreasonably small");
}

PhysMem::PhysMem(const PhysMemState &state) : PhysMem(state.totalPages)
{
    panicIf(state.ptOrder.size() != state.ptPages.size(),
            "PhysMemState pt vectors disagree");
    nextFrame_ = state.nextFrame;
    freeList_ = state.freeList;
    for (std::size_t i = 0; i < state.ptOrder.size(); ++i) {
        const Ppn ppn = state.ptOrder[i];
        panicIf(ppn >= totalPages_, "PhysMemState PT page out of range");
        if (ppn >= ptStore_.size())
            ptStore_.resize(ppn + 1);
        ptStore_[ppn] = std::make_unique<PtPage>(state.ptPages[i]);
        ptOrder_.push_back(ppn);
    }
    allocated_.inc(state.allocated);
    freed_.inc(state.freed);
}

Ppn
PhysMem::allocFrame()
{
    allocated_.inc();
    if (!freeList_.empty()) {
        const Ppn ppn = freeList_.back();
        freeList_.pop_back();
        return ppn;
    }
    fatalIf(nextFrame_ >= totalPages_, "out of physical memory");
    return nextFrame_++;
}

Ppn
PhysMem::allocHugeFrame()
{
    constexpr std::uint64_t frames = hugePageSize / pageSize;
    // Bump-allocate an aligned run; holes before the alignment boundary
    // go back to the free list.
    std::uint64_t start = (nextFrame_ + frames - 1) & ~(frames - 1);
    fatalIf(start + frames > totalPages_,
            "out of physical memory for huge page");
    for (std::uint64_t p = nextFrame_; p < start; ++p)
        freeList_.push_back(p);
    nextFrame_ = start + frames;
    allocated_.inc(frames);
    return start;
}

void
PhysMem::freeFrame(Ppn ppn)
{
    freed_.inc();
    if (isPageTablePage(ppn)) {
        ptStore_[ppn].reset();
        ptOrder_.erase(std::find(ptOrder_.begin(), ptOrder_.end(), ppn));
    }
    freeList_.push_back(ppn);
}

Ppn
PhysMem::allocPageTablePage()
{
    const Ppn ppn = allocFrame();
    if (ppn >= ptStore_.size())
        ptStore_.resize(ppn + 1);
    // Zero-filled: all entries not-present.
    ptStore_[ppn] = std::make_unique<PtPage>();
    ptOrder_.push_back(ppn);
    return ppn;
}

std::uint64_t
PhysMem::readQword(Addr paddr) const
{
    const Ppn ppn = pageNumber(paddr);
    const auto idx = (paddr & (pageSize - 1)) / pteSize;
    return ptPage(ppn)[idx];
}

void
PhysMem::writeQword(Addr paddr, std::uint64_t value)
{
    const Ppn ppn = pageNumber(paddr);
    const auto idx = (paddr & (pageSize - 1)) / pteSize;
    ptPage(ppn)[idx] = value;
}

PhysMemState
PhysMem::snapshot() const
{
    PhysMemState st;
    st.totalPages = totalPages_;
    st.nextFrame = nextFrame_;
    st.freeList = freeList_;
    st.ptOrder = ptOrder_;
    st.ptPages.reserve(ptOrder_.size());
    for (Ppn ppn : ptOrder_)
        st.ptPages.push_back(*ptStore_[ppn]);
    st.allocated = allocated_.value();
    st.freed = freed_.value();
    return st;
}

void
PhysMem::dumpStats(StatDump &dump, const std::string &prefix) const
{
    dump.set(prefix + ".total_pages", totalPages_);
    dump.set(prefix + ".allocated", allocated_.value());
    dump.set(prefix + ".freed", freed_.value());
    dump.set(prefix + ".page_table_pages", ptOrder_.size());
}

} // namespace tmcc

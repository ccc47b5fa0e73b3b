/**
 * @file
 * The OS-visible physical address space: a frame allocator plus backing
 * storage for page-table pages (whose 64B blocks must hold real PTE bit
 * patterns for Fig. 6 / PTB compression), while data pages are tracked
 * as metadata only (their contents are modelled by per-page
 * compressibility profiles; see src/workloads).
 *
 * Under hardware memory compression the OS boots with more physical
 * pages than DRAM bytes (the paper assumes up to 4x, §V-A5/6); the MC's
 * CTE layer maps this physical space onto DRAM.
 *
 * Page-table pages live in a dense vector indexed by Ppn (frames are
 * allocated densely from 1) rather than a hash map: the page-walk hot
 * path becomes a bounds check + direct index, and iteration follows
 * allocation order, which keeps setup-phase placement deterministic and
 * checkpointable.
 */

#ifndef TMCC_VM_PHYS_MEM_HH
#define TMCC_VM_PHYS_MEM_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "vm/pte.hh"

namespace tmcc
{

/** One backing page-table page (512 PTEs). */
using PtPage = std::array<std::uint64_t, ptesPerTable>;

/**
 * Snapshot of a PhysMem for setup-phase checkpoints: the allocator
 * position plus every page-table page's contents in allocation order.
 */
struct PhysMemState
{
    std::uint64_t totalPages = 0;
    std::uint64_t nextFrame = 1;
    std::vector<Ppn> freeList;
    std::vector<Ppn> ptOrder;     //!< PT pages in allocation order
    std::vector<PtPage> ptPages;  //!< parallel to ptOrder
    std::uint64_t allocated = 0;
    std::uint64_t freed = 0;
};

/** Physical frame allocator + page-table page store. */
class PhysMem : public Stated
{
  public:
    explicit PhysMem(std::uint64_t total_pages);

    /** Rebuild a PhysMem exactly as captured by snapshot(). */
    explicit PhysMem(const PhysMemState &state);

    /** Allocate one physical frame; fatal on exhaustion. */
    Ppn allocFrame();

    /** Allocate 512 contiguous, 2MB-aligned frames for a huge page. */
    Ppn allocHugeFrame();

    void freeFrame(Ppn ppn);

    /** Allocate a frame and register it as a page-table page. */
    Ppn allocPageTablePage();

    bool
    isPageTablePage(Ppn ppn) const
    {
        return ppn < ptStore_.size() && ptStore_[ppn] != nullptr;
    }

    /** Backing store of a page-table page (must be registered);
     * inline because every page-walk step reads through it. */
    PtPage &
    ptPage(Ppn ppn)
    {
        panicIf(!isPageTablePage(ppn), "not a page-table page");
        return *ptStore_[ppn];
    }

    const PtPage &
    ptPage(Ppn ppn) const
    {
        panicIf(!isPageTablePage(ppn), "not a page-table page");
        return *ptStore_[ppn];
    }

    /** Read / write an 8B PTE by physical address (PT pages only). */
    std::uint64_t readQword(Addr paddr) const;
    void writeQword(Addr paddr, std::uint64_t value);

    std::uint64_t totalPages() const { return totalPages_; }
    std::uint64_t allocatedPages() const { return allocated_.value(); }

    /** One past the highest frame the bump allocator has handed out
     * (alignment holes from huge allocations included). */
    std::uint64_t highWaterFrame() const { return nextFrame_; }
    std::uint64_t pageTablePages() const { return ptOrder_.size(); }

    /** Iterate all registered page-table pages in allocation order. */
    template <typename Fn>
    void
    forEachPtPage(Fn &&fn) const
    {
        for (Ppn ppn : ptOrder_)
            fn(ppn, *ptStore_[ppn]);
    }

    /** Capture the full allocator + PT-page state. */
    PhysMemState snapshot() const;

    void dumpStats(StatDump &dump,
                   const std::string &prefix) const override;

  private:
    std::uint64_t totalPages_;
    std::uint64_t nextFrame_ = 1; //!< frame 0 reserved
    std::vector<Ppn> freeList_;
    /** Indexed by Ppn; null where the frame is not a PT page. */
    std::vector<std::unique_ptr<PtPage>> ptStore_;
    std::vector<Ppn> ptOrder_; //!< registration order

    Counter allocated_, freed_;
};

} // namespace tmcc

#endif // TMCC_VM_PHYS_MEM_HH

/**
 * @file
 * A user address space: VMAs + a real page table with demand paging.
 *
 * Workload models run on top of this: mmap regions, touch pages (the
 * touch drives page faults, PT growth and therefore PT-page checking
 * traffic), and issue loads/stores through the Machine.
 */

#ifndef HPMP_OS_ADDRESS_SPACE_H
#define HPMP_OS_ADDRESS_SPACE_H

#include <map>
#include <vector>

#include "pt/page_table.h"

namespace hpmp
{

class Kernel;

/** One process address space. */
class AddressSpace
{
  public:
    explicit AddressSpace(Kernel &kernel);
    ~AddressSpace();

    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    PageTable &pageTable() { return pt_; }
    Addr rootPa() const { return pt_.rootPa(); }

    /**
     * Map `len` bytes of anonymous memory at a kernel-chosen address.
     * With populate, frames are allocated and mapped eagerly;
     * otherwise pages fault in on first touch.
     * @return the chosen virtual base address; memory exhaustion is
     *         fatal (legacy workload API — use tryMmap for the typed
     *         failure).
     */
    Addr mmap(uint64_t len, Perm perm, bool user = true,
              bool populate = true);

    /**
     * Like mmap, but allocator exhaustion (data frames or PT frames)
     * is reported instead of fatal: returns nullopt and leaves the
     * address space exactly as it was — any pages populated before
     * the failure are unwound.
     */
    std::optional<Addr> tryMmap(uint64_t len, Perm perm,
                                bool user = true, bool populate = true);

    /**
     * Map at a fixed address. @return false if it overlaps a VMA or
     * if populating ran out of memory (partial work is unwound).
     */
    bool mapAt(Addr va, uint64_t len, Perm perm, bool user,
               bool populate);

    /** Unmap [va, va+len), freeing any populated frames. */
    bool munmap(Addr va, uint64_t len);

    /**
     * Map one specific physical frame at va (kernel windows onto
     * page-table pages, device memory, shared buffers). The frame is
     * not owned by this address space and is not freed on unmap.
     */
    bool mapFrameAt(Addr va, Addr pa, Perm perm, bool user);

    /** Why a demand-paging fault could not be handled. */
    enum class FaultHandleStatus
    {
        Handled,     //!< page populated, retry the access
        BadAddress,  //!< no VMA covers va (or already populated)
        OutOfMemory, //!< typed allocator exhaustion, nothing changed
    };

    /** Demand-paging entry point with a typed outcome. */
    FaultHandleStatus tryHandleFault(Addr va, AccessType type);

    /**
     * Legacy demand-paging entry point.
     * @return true iff the fault was handled (OOM reads as unhandled).
     */
    bool handleFault(Addr va, AccessType type);

    /** True iff the page containing va has a frame. */
    bool populated(Addr va) const;

    uint64_t pageFaults() const { return faults_; }
    uint64_t populatedPages() const { return populatedPages_; }

  private:
    struct Vma
    {
        Addr base = 0;
        uint64_t len = 0;
        Perm perm;
        bool user = true;
        std::vector<bool> present; //!< one bit per page: has a frame
    };

    /**
     * Allocate and map one page of the given VMA.
     * @return false on allocator exhaustion (data or PT frames), with
     *         any allocated frame returned to the pool.
     */
    bool populatePage(Vma &vma, Addr page_va);

    /** Unmap one populated page of vma and free its frame. */
    void releasePage(Vma &vma, Addr page_va);

    Kernel &kernel_;
    PageTable pt_;
    std::map<Addr, Vma> vmas_;
    uint64_t populatedPages_ = 0;
    Addr mmapNext_ = 0x40000000;
    uint64_t faults_ = 0;
};

} // namespace hpmp

#endif // HPMP_OS_ADDRESS_SPACE_H

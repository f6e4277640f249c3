/**
 * @file
 * Virtualized test environment (paper §6 / §8.6, Figures 8 and 13).
 *
 * Builds a guest with an Sv39 guest page table and an Sv39x4 nested
 * page table, placing NPT pages in one contiguous pool and guest-PT
 * pages in another so the four compared methods can be programmed:
 *
 *   PMP      — all regions in segment mode (non-scalable baseline)
 *   PMPT     — everything through the permission table
 *   HPMP     — NPT pool in a segment, the rest in the table
 *   HPMP-GPT — NPT and guest-PT pools in segments (guest cooperates)
 *
 * The guest-physical layout is identity-mapped (gpa == spa) so guest
 * tables can be built directly in simulated memory, while every
 * access still performs the real three-dimensional walk. This is the
 * guest-side counterpart of MicroEnv (workloads/micro_env.h).
 */

#ifndef HPMP_WORKLOADS_VIRT_ENV_H
#define HPMP_WORKLOADS_VIRT_ENV_H

#include <memory>

#include "core/virt_machine.h"
#include "pmpt/pmp_table.h"
#include "pt/page_table.h"

namespace hpmp
{

/** The four methods of Fig. 13. */
enum class VirtScheme { Pmp, Pmpt, Hpmp, HpmpGpt };

const char *toString(VirtScheme scheme);

/** Assembled virtualized environment. */
class VirtEnv
{
  public:
    VirtEnv(CoreKind core, VirtScheme scheme);

    VirtMachine &vm() { return *vm_; }
    VirtScheme scheme() const { return scheme_; }
    /** The Sv39x4 nested and Sv39 guest tables, for custom mappings. */
    PageTable &npt() { return *npt_; }
    PageTable &gpt() { return *gpt_; }

    /**
     * Map `npages` guest pages starting at guestVaBase() and return
     * the base gva. Data pages are taken linearly from the data
     * region; `va_stride_pages` > 1 spreads the virtual addresses.
     * `user` and `npt_perm` set the VS-stage U bit and the G-stage
     * leaf permission (rwx/user by default).
     */
    Addr mapGuestPages(unsigned npages, uint64_t va_stride_pages = 1,
                       bool user = true, Perm npt_perm = Perm::rwx());

    static constexpr Addr kGuestVaBase = 0x40000000;

    /** Memory layout. */
    static constexpr Addr kMonitorBase = 0;
    static constexpr uint64_t kMonitorSize = 128_MiB;
    static constexpr Addr kNptPool = 128_MiB;
    static constexpr uint64_t kNptPoolSize = 32_MiB;
    static constexpr Addr kGptPool = 160_MiB;
    static constexpr uint64_t kGptPoolSize = 32_MiB;
    static constexpr Addr kDataBase = 1_GiB;
    static constexpr uint64_t kDataSize = 1_GiB;

  private:
    void programScheme();

    VirtScheme scheme_;
    std::unique_ptr<VirtMachine> vm_;
    std::unique_ptr<PageTable> npt_;  //!< Sv39x4 nested table
    std::unique_ptr<PageTable> gpt_;  //!< Sv39 guest table
    std::unique_ptr<PmpTable> table_; //!< permission table
    Addr nextDataPage_ = kDataBase;
    Addr nextGva_ = kGuestVaBase;
};

} // namespace hpmp

#endif // HPMP_WORKLOADS_VIRT_ENV_H

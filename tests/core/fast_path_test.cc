/**
 * @file
 * Fast-vs-full access path equivalence.
 *
 * A TLB hit skips its data poison consumption (the fast path) only
 * while physical memory holds no poison and the fault injector is off
 * (Machine::fastHitOk()); otherwise it takes the full path, which
 * consumes poison and visits the ras.poison_on_fill site. These tests
 * replay the same seeded stream through two identical machines, one
 * of them forced onto the full path (an enabled injector with no plan
 * armed, or a poisoned line in a frame the stream never touches), and
 * assert that every outcome, the stat-registry dump and the cache/DRAM
 * counters come out byte-identical.
 *
 * Each stream mixes loads, stores and fetches, U/S privilege flips,
 * superpages, more hot pages than the L1 TLB holds (L2 hits and
 * promotions), sfence / hfence and single-page flushes, stores to
 * read-only pages and accesses to a page the PMP denies.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/rng.h"
#include "base/trace.h"
#include "core/core_model.h"
#include "core/virt_machine.h"
#include "pt/walker.h"
#include "workloads/micro_env.h"
#include "workloads/virt_env.h"

namespace hpmp
{
namespace
{

/** How the second machine of a pair is kept off the fast path. */
enum class Force { None, Injector, Poison };

/** Poisoned line for Force::Poison: a frame no rig ever maps. */
constexpr Addr kUnrelatedPa = 12_GiB + 64;

constexpr unsigned kHot = 48;  //!< hot 4 KiB pages, > 32 L1 entries
constexpr unsigned kOps = 6000;

/** Every field of an outcome, for byte-exact comparison. */
std::string
describe(const AccessOutcome &out)
{
    std::ostringstream os;
    os << toString(out.fault) << " cyc=" << out.cycles
       << " hit=" << out.tlbHit << " pt=" << out.ptRefs
       << " ad=" << out.adRefs << " npt=" << out.nptRefs
       << " gpt=" << out.gptRefs << " pmpt=" << out.pmptRefs
       << " data=" << out.dataRefs << " pwc=" << out.pwcSkips
       << " gtlb=" << out.gTlbHits << " poison=" << out.poisonAddr << "/"
       << unsigned(out.poisonOrigin);
    return os.str();
}

std::string
describe(const BatchOutcome &b)
{
    std::ostringstream os;
    os << "n=" << b.accesses << " hits=" << b.tlbHits
       << " faults=" << b.faults << " cyc=" << b.cycles
       << " pt=" << b.ptRefs << " ad=" << b.adRefs
       << " npt=" << b.nptRefs << " gpt=" << b.gptRefs
       << " pmpt=" << b.pmptRefs << " data=" << b.dataRefs
       << " pwc=" << b.pwcSkips << " gtlb=" << b.gTlbHits
       << " done=" << b.completed << " first=" << toString(b.firstFault);
    return os.str();
}

/** Cache and DRAM counters, which live outside the stat registry. */
std::string
describe(MemoryHierarchy &hier)
{
    std::ostringstream os;
    for (Cache *c : {&hier.l1i(), &hier.l1d(), &hier.l2(), &hier.llc()})
        os << c->params().name << ":" << c->hits() << "/" << c->misses()
           << " ";
    os << "dram:" << hier.dram().rowHits() << "/"
       << hier.dram().rowMisses();
    return os.str();
}

/** A gtest parameter name: anything but [A-Za-z0-9] becomes '_'. */
std::string
paramName(std::string name)
{
    for (char &ch : name) {
        if (!isalnum(static_cast<unsigned char>(ch)))
            ch = '_';
    }
    return name;
}

AccessType
randomType(Rng &rng)
{
    const uint64_t r = rng.below(20);
    return r < 12 ? AccessType::Load
                  : (r < 17 ? AccessType::Store : AccessType::Fetch);
}

/** Per-op record of one replay. */
struct Replay
{
    std::vector<std::string> ops;
    std::string stats;
    std::string caches;
    bool fastSeen = false; //!< fastHitOk() held at some access
    bool fullOnly = true;  //!< fastHitOk() never held
};

/**
 * Arrange `force` for the machine about to replay, and undo the
 * injector part afterwards (the injector is process-wide).
 */
class ForceGuard
{
  public:
    ForceGuard(Force force, PhysMem &mem)
        : force_(force)
    {
        if (force == Force::Injector)
            FaultInjector::instance().enable(7);
        else if (force == Force::Poison)
            mem.poisonLine(kUnrelatedPa);
    }
    ~ForceGuard()
    {
        if (force_ == Force::Injector)
            FaultInjector::instance().disable();
    }

  private:
    Force force_;
};

// ---- single-stage ---------------------------------------------------

constexpr Addr kData = MicroEnv::kDataBase;
/** Just past the data region: outside every grant. */
constexpr Addr kDenied = MicroEnv::kDataBase + MicroEnv::kDataSize;
constexpr Addr kVa = 0x40000000;
constexpr Addr kSuperVa = 0x40400000;    //!< one 2 MiB leaf
constexpr Addr kSuperPa = kData + 32_MiB;

struct MachineRig
{
    MachineRig(IsolationScheme scheme, unsigned pmptw_entries)
        : env(params(pmptw_entries), scheme), machine(env.machine()),
          pt(env.pt())
    {
        for (unsigned i = 0; i < kHot; ++i)
            pt.map(kVa + pageAddr(i), kData + pageAddr(i), Perm::rw(), true);
        pt.map(roVa(), kData + pageAddr(kHot), Perm::ro(), true);
        pt.map(supVa(), kData + pageAddr(kHot + 1), Perm::rwx(), false);
        pt.map(deniedVa(), kDenied, Perm::rw(), true);
        pt.map(kSuperVa, kSuperPa, Perm::rwx(), true, 1);
        machine.registerStats(registry);
    }

    static MachineParams
    params(unsigned pmptw_entries)
    {
        MachineParams p = rocketParams();
        p.pmptwEntries = pmptw_entries;
        return p;
    }

    static Addr roVa() { return kVa + pageAddr(kHot); }
    static Addr supVa() { return kVa + pageAddr(kHot + 1); }
    static Addr deniedVa() { return kVa + pageAddr(kHot + 2); }

    /** A target address: mostly hot pages, sometimes the odd ones. */
    static Addr
    randomVa(Rng &rng)
    {
        const uint64_t r = rng.below(100);
        const Addr off = rng.below(kPageSize / 8) * 8;
        if (r < 84)
            return kVa + pageAddr(rng.below(kHot)) + off;
        if (r < 88)
            return roVa() + off;
        if (r < 91)
            return supVa() + off;
        if (r < 94)
            return deniedVa() + off;
        return kSuperVa + rng.below(2_MiB / 8) * 8;
    }

    MicroEnv env;
    Machine &machine;
    PageTable &pt;
    StatRegistry registry;
};

Replay
replayMachine(IsolationScheme scheme, unsigned pmptw_entries, Force force,
              uint64_t seed)
{
    MachineRig rig(scheme, pmptw_entries);
    Machine &m = rig.machine;
    ForceGuard guard(force, m.mem());
    Replay replay;
    Rng rng(seed);
    auto note_path = [&] {
        const bool fast = m.fastHitOk();
        replay.fastSeen |= fast;
        replay.fullOnly &= !fast;
    };

    for (unsigned op = 0; op < kOps; ++op) {
        const uint64_t r = rng.below(100);
        if (r < 3) {
            m.setPriv(m.priv() == PrivMode::User ? PrivMode::Supervisor
                                                 : PrivMode::User);
            replay.ops.push_back("priv");
        } else if (r < 4) {
            m.sfenceVma();
            replay.ops.push_back("sfence");
        } else if (r < 6) {
            m.tlb().flushPage(MachineRig::randomVa(rng));
            replay.ops.push_back("flushPage");
        } else if (r < 10) {
            std::vector<AccessRequest> reqs(1 + rng.below(24));
            for (AccessRequest &req : reqs)
                req = {MachineRig::randomVa(rng), randomType(rng)};
            note_path();
            replay.ops.push_back("batch " +
                                 describe(m.accessBatch(reqs)));
        } else {
            const Addr va = MachineRig::randomVa(rng);
            const AccessType type = randomType(rng);
            note_path();
            replay.ops.push_back(describe(m.access(va, type)));
        }
    }
    replay.stats = rig.registry.dumpJson();
    replay.caches = describe(m.hier());
    return replay;
}

void
expectSame(const Replay &fast, const Replay &full)
{
    EXPECT_TRUE(fast.fastSeen);
    EXPECT_TRUE(full.fullOnly);
    ASSERT_EQ(fast.ops.size(), full.ops.size());
    for (size_t i = 0; i < fast.ops.size(); ++i)
        ASSERT_EQ(fast.ops[i], full.ops[i]) << "op " << i;
    EXPECT_EQ(fast.stats, full.stats);
    EXPECT_EQ(fast.caches, full.caches);
}

/**
 * FNV-1a over a replay's op log (one line per op) and its cache/DRAM
 * counters. The golden values below pin the fast path's output across
 * builds, which expectSame() cannot: a change to an outcome field that
 * both paths share would pass it.
 */
uint64_t
digestOf(const Replay &replay)
{
    uint64_t hash = kFnvBasis;
    for (const std::string &op : replay.ops)
        hash = fnvBytes(op.data(), op.size(), fnvFold(hash, op.size()));
    return fnvBytes(replay.caches.data(), replay.caches.size(), hash);
}

struct MachineCase
{
    IsolationScheme scheme;
    unsigned pmptwEntries;
    Force force;
};

class MachineFastPath : public ::testing::TestWithParam<MachineCase>
{
};

TEST_P(MachineFastPath, FullPathReplaysByteIdentical)
{
    const MachineCase c = GetParam();
    for (uint64_t seed : {1u, 2u, 3u}) {
        const Replay fast =
            replayMachine(c.scheme, c.pmptwEntries, Force::None, seed);
        const Replay full =
            replayMachine(c.scheme, c.pmptwEntries, c.force, seed);
        expectSame(fast, full);
    }
}

TEST_P(MachineFastPath, StreamReachesEveryOutcomeKind)
{
    // Guard against a stream too tame to compare anything: it must
    // hit both TLB levels and see page, access and no faults.
    const MachineCase c = GetParam();
    MachineRig rig(c.scheme, c.pmptwEntries);
    Machine &m = rig.machine;
    Rng rng(1);
    bool page_fault = false, access_fault = false, fetch_ok = false;
    for (unsigned op = 0; op < kOps; ++op) {
        const AccessType type = randomType(rng);
        const AccessOutcome out = m.access(MachineRig::randomVa(rng), type);
        page_fault |= out.fault == pageFaultFor(type);
        access_fault |= out.fault == accessFaultFor(type);
        fetch_ok |= out.ok() && type == AccessType::Fetch;
    }
    EXPECT_TRUE(page_fault);
    EXPECT_TRUE(access_fault);
    EXPECT_TRUE(fetch_ok);
    EXPECT_GT(m.tlb().l1Hits(), 0u);
    EXPECT_GT(m.tlb().l2Hits(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MachineFastPath,
    ::testing::Values(
        MachineCase{IsolationScheme::Pmp, 0, Force::Injector},
        MachineCase{IsolationScheme::Pmp, 0, Force::Poison},
        MachineCase{IsolationScheme::PmpTable, 0, Force::Injector},
        MachineCase{IsolationScheme::PmpTable, 0, Force::Poison},
        MachineCase{IsolationScheme::Hpmp, 0, Force::Injector},
        MachineCase{IsolationScheme::Hpmp, 8, Force::Poison}),
    [](const ::testing::TestParamInfo<MachineCase> &tp) {
        std::string name = toString(tp.param.scheme);
        if (tp.param.pmptwEntries)
            name += "_pmptw";
        name += tp.param.force == Force::Injector ? "_injector"
                                                  : "_poison";
        return paramName(name);
    });

struct GoldenDigest
{
    IsolationScheme scheme;
    unsigned pmptwEntries; //!< host replays only
    uint64_t seed;
    uint64_t digest;
};

/**
 * Pinned op-log digests: an intended change to simulated output or to
 * a rig's layout re-records them (the failure message prints each new
 * digest).
 */
TEST(MachineFastPathGolden, OpLogDigestsMatchRecorded)
{
    const GoldenDigest cases[] = {
        {IsolationScheme::Pmp, 0, 1, 0x2b308fe3db584e15ULL},
        {IsolationScheme::Pmp, 0, 2, 0x3c441f6d56d42e3cULL},
        {IsolationScheme::Pmp, 0, 3, 0xe0d2758a3e191e6eULL},
        {IsolationScheme::PmpTable, 0, 1, 0x022f6a1651b8bba5ULL},
        {IsolationScheme::PmpTable, 0, 2, 0x67edc487e12f6118ULL},
        {IsolationScheme::PmpTable, 0, 3, 0x81e71d3476001a3bULL},
        {IsolationScheme::Hpmp, 0, 1, 0x779684c1a8728f02ULL},
        {IsolationScheme::Hpmp, 0, 2, 0x9ee67bafb2cd092fULL},
        {IsolationScheme::Hpmp, 0, 3, 0xeb33826f00c329ecULL},
        {IsolationScheme::Hpmp, 8, 1, 0x6f73f7ca77fca5f5ULL},
        {IsolationScheme::Hpmp, 8, 2, 0x9c0b38270d5493c4ULL},
        {IsolationScheme::Hpmp, 8, 3, 0xb62a2a6f56230b4eULL},
    };
    for (const GoldenDigest &c : cases) {
        const Replay replay =
            replayMachine(c.scheme, c.pmptwEntries, Force::None, c.seed);
        EXPECT_EQ(digestOf(replay), c.digest)
            << std::hex << std::showbase << toString(c.scheme)
            << " pmptw=" << c.pmptwEntries << " seed=" << c.seed
            << " digest=" << digestOf(replay);
    }
}

TEST(MachineHitPoison, L1AndL2HitsConsumePoisonedLine)
{
    // A line poisoned after its page entered the TLB: a hit from
    // either level must consume it (fastHitOk() turns false), never
    // read through it.
    MachineRig rig(IsolationScheme::Hpmp, 0);
    Machine &m = rig.machine;
    ASSERT_TRUE(m.access(kVa + 0x40, AccessType::Load).ok());
    m.mem().poisonLine(kData + 0x40);
    AccessOutcome out = m.access(kVa + 0x48, AccessType::Load);
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, kData + 0x48);
    EXPECT_EQ(out.poisonOrigin, RefOrigin::Data);
    EXPECT_TRUE(m.access(kVa + 0x80, AccessType::Load).ok());

    // Push page 0 out of the 32-entry L1; it stays in the L2.
    for (unsigned i = 1; i < kHot; ++i)
        ASSERT_TRUE(m.access(kVa + pageAddr(i), AccessType::Load).ok());
    const uint64_t l2_hits = m.tlb().l2Hits();
    out = m.access(kVa + 0x40, AccessType::Store);
    EXPECT_EQ(m.tlb().l2Hits(), l2_hits + 1);
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, kData + 0x40);
}

/** A walk reference the access of `va` makes, found without timing it. */
PtRef
hostWalkRef(MachineRig &rig, Addr va, unsigned level, bool write)
{
    WalkConfig config;
    config.hardwareAdUpdate = false; // no A/D write on a functional probe
    const WalkResult walk =
        walkPageTable(rig.machine.mem(), rig.pt.rootPa(), va,
                      AccessType::Load, PrivMode::User, config);
    for (const PtRef &ref : walk.refs) {
        if (ref.level == level)
            return {ref.pa, write, level};
    }
    ADD_FAILURE() << "no level-" << level << " reference";
    return {};
}

/** The pmpte reads the physical check of `pa` makes, root first. */
std::vector<PmptRef>
pmpteRefs(HpmpUnit &unit, Addr pa)
{
    const HpmpCheckResult check =
        unit.check(pa, 8, AccessType::Load, PrivMode::Supervisor);
    return {check.pmptRefs.begin(), check.pmptRefs.end()};
}

TEST(MachineWalkPoison, PoisonedPtPageReportsItsLevel)
{
    for (unsigned level : {0u, 2u}) {
        MachineRig rig(IsolationScheme::Hpmp, 0);
        const PtRef ref = hostWalkRef(rig, kVa + 0x40, level, false);
        rig.machine.mem().poisonLine(ref.pa);
        const AccessOutcome out =
            rig.machine.access(kVa + 0x40, AccessType::Load);
        EXPECT_FALSE(out.tlbHit);
        EXPECT_EQ(out.fault, Fault::MachineCheck);
        EXPECT_EQ(out.poisonAddr, ref.pa);
        EXPECT_EQ(out.poisonOrigin, level ? RefOrigin::PtL2 : RefOrigin::PtL0);
    }
}

TEST(MachineWalkPoison, PoisonedAdWriteReportsAdUpdate)
{
    // A clean page: the first load caches every PTE in the PWC, so the
    // store's walk skips the reads and its A/D write is the first
    // reference to reach the poisoned leaf PTE.
    MachineRig rig(IsolationScheme::Hpmp, 0);
    Machine &m = rig.machine;
    const Addr va = kVa + pageAddr(kHot + 8);
    rig.pt.map(va, kData + pageAddr(kHot + 8), Perm::rw(), true, 0,
               /*accessed=*/true, /*dirty=*/false);
    ASSERT_TRUE(m.access(va, AccessType::Load).ok());
    const PtRef ref = hostWalkRef(rig, va, 0, true);
    m.mem().poisonLine(ref.pa);
    m.tlb().flushAll(); // the PWC keeps its entries
    const AccessOutcome out = m.access(va, AccessType::Store);
    EXPECT_EQ(out.pwcSkips, 3u);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, ref.pa);
    EXPECT_EQ(out.poisonOrigin, RefOrigin::AdUpdate);
}

TEST(MachineWalkPoison, PoisonedPmpteReportsRootOrLeaf)
{
    // The data page's leaf pmpte is read only by the data reference's
    // check; its root pmpte line by the first one that reaches it.
    for (bool leaf : {true, false}) {
        MachineRig rig(IsolationScheme::PmpTable, 0);
        Machine &m = rig.machine;
        const std::vector<PmptRef> refs = pmpteRefs(m.hpmp(), kData + 0x40);
        ASSERT_EQ(refs.size(), 2u);
        const Addr pmpte = leaf ? refs.back().pa : refs.front().pa;
        m.mem().poisonLine(pmpte);
        const AccessOutcome out = m.access(kVa + 0x40, AccessType::Load);
        EXPECT_EQ(out.fault, Fault::MachineCheck);
        EXPECT_EQ(alignDown(out.poisonAddr, 64), alignDown(pmpte, 64));
        EXPECT_EQ(out.poisonOrigin,
                  leaf ? RefOrigin::PmpteLeaf : RefOrigin::PmpteRoot);
        if (leaf) {
            EXPECT_EQ(out.poisonAddr, pmpte);
        }
    }
}

// ---- two-stage ------------------------------------------------------

constexpr Addr kGuestData = VirtEnv::kDataBase;
constexpr Addr kGuestDenied = 3_GiB;  //!< no grant covers it
constexpr Addr kGva = 0x40000000;
constexpr Addr kGSuperVa = 0x40400000; //!< 2 MiB in both stages
constexpr Addr kGSuperGpa = kGuestData + 32_MiB;
constexpr Addr kGSplitVa = 0x40600000; //!< 2 MiB guest, 4 KiB nested
constexpr Addr kGSplitGpa = kGuestData + 34_MiB;
constexpr unsigned kSplitPages = 16;   //!< nested-mapped part of it

/** The VirtEnv method that programs `scheme` (PMP, PMPT or HPMP). */
VirtScheme
virtScheme(IsolationScheme scheme)
{
    return scheme == IsolationScheme::Pmp    ? VirtScheme::Pmp
           : scheme == IsolationScheme::Hpmp ? VirtScheme::Hpmp
                                             : VirtScheme::Pmpt;
}

struct VirtRig
{
    explicit VirtRig(IsolationScheme scheme)
        : env(CoreKind::Rocket, virtScheme(scheme)), vm(env.vm()),
          npt(env.npt()), gpt(env.gpt())
    {
        auto map4k = [&](Addr gva, Addr gpa, Perm vs, bool user, Perm g) {
            gpt.map(gva, gpa, vs, user);
            npt.map(gpa, gpa, g, true);
        };
        for (unsigned i = 0; i < kHot; ++i) {
            map4k(kGva + pageAddr(i), kGuestData + pageAddr(i), Perm::rwx(),
                  true, Perm::rwx());
        }
        map4k(vsRoVa(), kGuestData + pageAddr(kHot), Perm::ro(), true,
              Perm::rwx());
        map4k(gRoVa(), kGuestData + pageAddr(kHot + 1), Perm::rwx(), true,
              Perm::ro());
        map4k(supVa(), kGuestData + pageAddr(kHot + 2), Perm::rwx(), false,
              Perm::rwx());
        map4k(deniedVa(), kGuestDenied, Perm::rw(), true, Perm::rwx());
        gpt.map(kGSuperVa, kGSuperGpa, Perm::rwx(), true, 1);
        npt.map(kGSuperGpa, kGSuperGpa, Perm::rwx(), true, 1);
        gpt.map(kGSplitVa, kGSplitGpa, Perm::rwx(), true, 1);
        for (unsigned i = 0; i < kSplitPages; ++i) {
            npt.map(kGSplitGpa + pageAddr(i), kGSplitGpa + pageAddr(i),
                    Perm::rwx(), true);
        }
        vm.setGuestPriv(PrivMode::User);
        vm.registerStats(registry);
    }

    static Addr vsRoVa() { return kGva + pageAddr(kHot); }
    static Addr gRoVa() { return kGva + pageAddr(kHot + 1); }
    static Addr supVa() { return kGva + pageAddr(kHot + 2); }
    static Addr deniedVa() { return kGva + pageAddr(kHot + 3); }

    static Addr
    randomVa(Rng &rng)
    {
        const uint64_t r = rng.below(100);
        const Addr off = rng.below(kPageSize / 8) * 8;
        if (r < 80)
            return kGva + pageAddr(rng.below(kHot)) + off;
        if (r < 83)
            return vsRoVa() + off;
        if (r < 86)
            return gRoVa() + off;
        if (r < 89)
            return supVa() + off;
        if (r < 92)
            return deniedVa() + off;
        if (r < 96)
            return kGSuperVa + rng.below(2_MiB / 8) * 8;
        return kGSplitVa + pageAddr(rng.below(kSplitPages)) + off;
    }

    VirtEnv env;
    VirtMachine &vm;
    PageTable &npt;
    PageTable &gpt;
    StatRegistry registry;
};

Replay
replayVirt(IsolationScheme scheme, Force force, uint64_t seed)
{
    VirtRig rig(scheme);
    VirtMachine &vm = rig.vm;
    ForceGuard guard(force, vm.mem());
    Replay replay;
    Rng rng(seed);
    auto note_path = [&] {
        const bool fast = vm.machine().fastHitOk();
        replay.fastSeen |= fast;
        replay.fullOnly &= !fast;
    };

    for (unsigned op = 0; op < kOps; ++op) {
        const uint64_t r = rng.below(100);
        if (r < 3) {
            vm.setGuestPriv(vm.guestPriv() == PrivMode::User
                                ? PrivMode::Supervisor
                                : PrivMode::User);
            replay.ops.push_back("priv");
        } else if (r < 4) {
            vm.hfenceVvma();
            replay.ops.push_back("hfence.vvma");
        } else if (r < 6) {
            vm.combinedTlb().flushPage(VirtRig::randomVa(rng));
            replay.ops.push_back("flushPage");
        } else if (r < 10) {
            std::vector<AccessRequest> reqs(1 + rng.below(24));
            for (AccessRequest &req : reqs)
                req = {VirtRig::randomVa(rng), randomType(rng)};
            note_path();
            replay.ops.push_back("batch " +
                                 describe(vm.accessBatch(reqs)));
        } else {
            const Addr gva = VirtRig::randomVa(rng);
            const AccessType type = randomType(rng);
            note_path();
            replay.ops.push_back(describe(vm.access(gva, type)));
        }
    }
    replay.stats = rig.registry.dumpJson();
    replay.caches = describe(vm.hier());
    return replay;
}

class VirtFastPath
    : public ::testing::TestWithParam<std::tuple<IsolationScheme, Force>>
{
};

TEST_P(VirtFastPath, FullPathReplaysByteIdentical)
{
    const auto [scheme, force] = GetParam();
    for (uint64_t seed : {1u, 2u, 3u}) {
        const Replay fast = replayVirt(scheme, Force::None, seed);
        const Replay full = replayVirt(scheme, force, seed);
        expectSame(fast, full);
    }
}

TEST(VirtFastPathGolden, OpLogDigestsMatchRecorded)
{
    const GoldenDigest cases[] = {
        {IsolationScheme::Pmp, 0, 1, 0xabcd54555adb9031ULL},
        {IsolationScheme::Pmp, 0, 2, 0x0dea338cc5e46826ULL},
        {IsolationScheme::Pmp, 0, 3, 0xda9f7334dc83e4b6ULL},
        {IsolationScheme::PmpTable, 0, 1, 0x284fbfb0518e189bULL},
        {IsolationScheme::PmpTable, 0, 2, 0xdc7969f1b55e626aULL},
        {IsolationScheme::PmpTable, 0, 3, 0xc13db307caeaa539ULL},
        {IsolationScheme::Hpmp, 0, 1, 0x6d023115a370ce18ULL},
        {IsolationScheme::Hpmp, 0, 2, 0x95054fd50389f3b5ULL},
        {IsolationScheme::Hpmp, 0, 3, 0xee8ba1adf40df244ULL},
    };
    for (const GoldenDigest &c : cases) {
        const Replay replay = replayVirt(c.scheme, Force::None, c.seed);
        EXPECT_EQ(digestOf(replay), c.digest)
            << std::hex << std::showbase << toString(c.scheme)
            << " seed=" << c.seed << " digest=" << digestOf(replay);
    }
}

TEST(VirtFastPathStream, ReachesEveryOutcomeKind)
{
    VirtRig rig(IsolationScheme::Hpmp);
    VirtMachine &vm = rig.vm;
    Rng rng(1);
    bool page_fault = false, guest_fault = false, access_fault = false;
    bool super_hit = false;
    for (unsigned op = 0; op < kOps; ++op) {
        const AccessType type = randomType(rng);
        const Addr gva = VirtRig::randomVa(rng);
        const AccessOutcome out = vm.access(gva, type);
        page_fault |= out.fault == pageFaultFor(type);
        guest_fault |= out.fault == guestPageFaultFor(type);
        access_fault |= out.fault == accessFaultFor(type);
        super_hit |= out.ok() && out.tlbHit &&
                     alignDown(gva, 2_MiB) == kGSuperVa;
    }
    EXPECT_TRUE(page_fault);
    EXPECT_TRUE(guest_fault);
    EXPECT_TRUE(access_fault);
    EXPECT_TRUE(super_hit);
    EXPECT_GT(vm.combinedTlb().l1Hits(), 0u);
    EXPECT_GT(vm.combinedTlb().l2Hits(), 0u);
}

TEST(VirtHitPoison, CombinedTlbHitConsumesPoisonedLine)
{
    VirtRig rig(IsolationScheme::Hpmp);
    VirtMachine &vm = rig.vm;
    ASSERT_TRUE(vm.access(kGva + 0x40, AccessType::Load).ok());
    vm.mem().poisonLine(kGuestData + 0x40);
    const AccessOutcome out = vm.access(kGva + 0x40, AccessType::Load);
    EXPECT_TRUE(out.tlbHit);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, kGuestData + 0x40);
    EXPECT_EQ(out.poisonOrigin, RefOrigin::Data);
    EXPECT_TRUE(vm.access(kGva + 0x80, AccessType::Load).ok());
}

/** The supervisor-physical references of the first access of `gva`. */
std::vector<VirtRef>
virtWalkRefs(VirtRig &rig, Addr gva)
{
    const TwoStageResult walk = walkTwoStage(
        rig.vm.mem(), rig.gpt.rootPa(), rig.npt.rootPa(), gva,
        AccessType::Load, PrivMode::User, TwoStageConfig{});
    EXPECT_TRUE(walk.ok());
    return {walk.refs.begin(), walk.refs.end()};
}

/** The first reference of `kind` in a 3D walk. */
VirtRef
firstOf(const std::vector<VirtRef> &refs, VirtRefKind kind)
{
    for (const VirtRef &ref : refs) {
        if (ref.kind == kind)
            return ref;
    }
    ADD_FAILURE() << "no reference of that kind";
    return {};
}

TEST(VirtWalkPoison, PoisonedReferenceReportsItsOrigin)
{
    // NPT page, GPT page and data line of a cold 3D walk: each is the
    // first reference to its line, so it is the one that consumes it.
    // The first NPT and GPT references are both root-level reads.
    const struct { VirtRefKind kind; RefOrigin origin; } cases[] = {
        {VirtRefKind::NptPage, RefOrigin::NptL2},
        {VirtRefKind::GptPage, RefOrigin::GptL2},
        {VirtRefKind::Data, RefOrigin::Data},
    };
    for (const auto &c : cases) {
        VirtRig rig(IsolationScheme::Hpmp);
        const VirtRef ref = firstOf(virtWalkRefs(rig, kGva + 0x40), c.kind);
        rig.vm.mem().poisonLine(ref.spa);
        const AccessOutcome out = rig.vm.access(kGva + 0x40, AccessType::Load);
        EXPECT_FALSE(out.tlbHit);
        EXPECT_EQ(out.fault, Fault::MachineCheck);
        EXPECT_EQ(out.poisonAddr, ref.spa);
        EXPECT_EQ(out.poisonOrigin, c.origin);
    }
}

TEST(VirtWalkPoison, PoisonedPmpteReportsRoot)
{
    // The first NPT reference's check reads the root pmpte first.
    VirtRig rig(IsolationScheme::PmpTable);
    const VirtRef npt =
        firstOf(virtWalkRefs(rig, kGva + 0x40), VirtRefKind::NptPage);
    const std::vector<PmptRef> refs = pmpteRefs(rig.vm.hpmp(), npt.spa);
    ASSERT_EQ(refs.size(), 2u);
    rig.vm.mem().poisonLine(refs.front().pa);
    const AccessOutcome out = rig.vm.access(kGva + 0x40, AccessType::Load);
    EXPECT_EQ(out.fault, Fault::MachineCheck);
    EXPECT_EQ(out.poisonAddr, refs.front().pa);
    EXPECT_EQ(out.poisonOrigin, RefOrigin::PmpteRoot);
    EXPECT_EQ(out.pmptRefs, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VirtFastPath,
    ::testing::Combine(::testing::Values(IsolationScheme::Pmp,
                                         IsolationScheme::PmpTable,
                                         IsolationScheme::Hpmp),
                       ::testing::Values(Force::Injector, Force::Poison)),
    [](const ::testing::TestParamInfo<std::tuple<IsolationScheme, Force>>
           &tp) {
        std::string name = toString(std::get<0>(tp.param));
        name += std::get<1>(tp.param) == Force::Injector ? "_injector"
                                                         : "_poison";
        return paramName(name);
    });

// ---- split vs inline schedule ----------------------------------------
//
// A batch of at least Machine::kSplitBatchMin requests, and every
// request on an open Machine::TimingStream, has its physical
// references timed on a helper thread; a single access() times them
// inline. Replaying the same seeded stream each way must give the same
// outcomes, stats, cache/DRAM counters and core-model cycles.

constexpr size_t kSplitLong = 4 * Machine::kSplitBatchMin;

/** Fold one access into a batch outcome, as a batch would. */
void
addInline(BatchOutcome &b, const AccessOutcome &out)
{
    b.add(out);
    b.cycles += out.cycles;
}

/** A stream over `rig`'s pages (some fault, some walk every time). */
std::vector<AccessRequest>
hostStream(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<AccessRequest> reqs(n);
    for (AccessRequest &req : reqs)
        req = {MachineRig::randomVa(rng), randomType(rng)};
    return reqs;
}

/** Machine state that either schedule must leave the same. */
struct MachineState
{
    std::vector<BatchOutcome> batches;
    std::string stats;
    std::string caches;
    uint64_t coreCycles = 0;
    uint64_t coreAccesses = 0;
    /** Timing streams the machine opened. */
    uint64_t streamsOpened = 0;
};

void
expectSameState(const MachineState &split, const MachineState &inl)
{
    ASSERT_EQ(split.batches.size(), inl.batches.size());
    for (size_t i = 0; i < split.batches.size(); ++i)
        EXPECT_EQ(describe(split.batches[i]), describe(inl.batches[i]));
    EXPECT_EQ(split.stats, inl.stats);
    EXPECT_EQ(split.caches, inl.caches);
    EXPECT_EQ(split.coreCycles, inl.coreCycles);
    EXPECT_EQ(split.coreAccesses, inl.coreAccesses);
}

/** How a host replay times its requests. */
enum class Schedule
{
    Inline, //!< one access() per request
    Batch,  //!< one accessBatch() per batch: split from kSplitBatchMin
    Stream, //!< streamAccess() on one TimingStream over every batch
};

/**
 * Replay `batches` on a fresh host rig, with an sfence.vma between
 * them, on `schedule`. A streamed request's cycles are known to the
 * helper only, so Stream batches carry no cycle sum: the core model,
 * `walk_cycles` and `machine.ref.*` compare them.
 */
MachineState
replayHostSchedule(IsolationScheme scheme, unsigned pmptw_entries,
                   const std::vector<std::vector<AccessRequest>> &batches,
                   Schedule schedule, bool stop_on_fault = false,
                   Addr poison_pa = 0)
{
    MachineRig rig(scheme, pmptw_entries);
    Machine &m = rig.machine;
    if (poison_pa)
        m.mem().poisonLine(poison_pa);
    CoreModel model(m.params());
    MachineState state;
    {
        std::optional<Machine::TimingStream> stream;
        if (schedule == Schedule::Stream)
            stream.emplace(m, model);
        for (const std::vector<AccessRequest> &reqs : batches) {
            BatchOutcome b;
            if (schedule == Schedule::Batch) {
                b = m.accessBatch(reqs, &model, stop_on_fault);
            } else {
                for (const AccessRequest &req : reqs) {
                    AccessOutcome out;
                    if (stream) {
                        out = m.streamAccess(req.va, req.type);
                        b.add(out);
                    } else {
                        out = m.access(req.va, req.type);
                        model.addAccess(out);
                        addInline(b, out);
                    }
                    if (!out.ok() && stop_on_fault)
                        break;
                }
            }
            state.batches.push_back(b);
            m.sfenceVma();
        }
    }
    state.stats = rig.registry.dumpJson();
    state.caches = describe(m.hier());
    state.coreCycles = model.cycles();
    state.coreAccesses = model.memAccesses();
    state.streamsOpened = m.streamsOpened();
    return state;
}

class MachineSplitSchedule
    : public ::testing::TestWithParam<IsolationScheme>
{
};

TEST_P(MachineSplitSchedule, MatchesInlineAccesses)
{
    // The second batch is exactly one request past the threshold.
    const std::vector<std::vector<AccessRequest>> batches = {
        hostStream(1, kSplitLong),
        hostStream(2, Machine::kSplitBatchMin + 1)};
    const MachineState split =
        replayHostSchedule(GetParam(), 8, batches, Schedule::Batch);
    const MachineState inl =
        replayHostSchedule(GetParam(), 8, batches, Schedule::Inline);
    expectSameState(split, inl);
    // Both batches took the split schedule, and the stream walks and
    // faults: the comparison is not vacuous.
    EXPECT_EQ(split.streamsOpened, 2u);
    EXPECT_EQ(inl.streamsOpened, 0u);
    EXPECT_LT(split.batches[0].tlbHits, split.batches[0].accesses);
    EXPECT_GT(split.batches[0].faults, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MachineSplitSchedule,
    ::testing::Values(IsolationScheme::Pmp, IsolationScheme::PmpTable,
                      IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &tp) {
        return paramName(toString(tp.param));
    });

TEST(MachineSplitSchedule, SplitsFromTheThresholdOn)
{
    for (const size_t n : {Machine::kSplitBatchMin - 1,
                           Machine::kSplitBatchMin,
                           Machine::kSplitBatchMin + 1}) {
        SCOPED_TRACE(n);
        const std::vector<std::vector<AccessRequest>> batches = {
            hostStream(3, n)};
        const MachineState split = replayHostSchedule(
            IsolationScheme::PmpTable, 8, batches, Schedule::Batch);
        const MachineState inl = replayHostSchedule(
            IsolationScheme::PmpTable, 8, batches, Schedule::Inline);
        expectSameState(split, inl);
        EXPECT_EQ(split.streamsOpened, n >= Machine::kSplitBatchMin);
    }
}

/** Loads and stores over hot pages 0..kHot-2 (no fault), then the
 *  one request to page kHot-1, whose line is poisoned, mid-stream. */
struct PoisonedStream
{
    static constexpr size_t kAt = kSplitLong / 2 + 17;
    static constexpr Addr kPa = kData + pageAddr(kHot - 1) + 0x40;
    std::vector<AccessRequest> reqs;

    PoisonedStream()
        : reqs(kSplitLong)
    {
        Rng rng(5);
        for (AccessRequest &req : reqs) {
            req = {kVa + pageAddr(rng.below(kHot - 1)) +
                       8 * rng.below(kPageSize / 8),
                   rng.chance(0.3) ? AccessType::Store : AccessType::Load};
        }
        reqs[kAt] = {kVa + pageAddr(kHot - 1) + 0x48, AccessType::Load};
    }
};

TEST(MachineSplitSchedule, PoisonedLineMidBatchFaultsAtTheSameRequest)
{
    const PoisonedStream poisoned;
    for (const bool stop : {true, false}) {
        SCOPED_TRACE(stop ? "stop_on_fault" : "run through");
        const MachineState split =
            replayHostSchedule(IsolationScheme::Hpmp, 8, {poisoned.reqs},
                               Schedule::Batch, stop, PoisonedStream::kPa);
        const MachineState inl =
            replayHostSchedule(IsolationScheme::Hpmp, 8, {poisoned.reqs},
                               Schedule::Inline, stop, PoisonedStream::kPa);
        expectSameState(split, inl);
        EXPECT_EQ(split.streamsOpened, 1u);
        const BatchOutcome &b = split.batches[0];
        EXPECT_EQ(b.completed,
                  stop ? PoisonedStream::kAt + 1 : kSplitLong);
        EXPECT_EQ(b.faults, 1u);
        EXPECT_EQ(b.firstFault, Fault::MachineCheck);
    }
}

/** expectSameState() for a Stream replay, whose batches sum no
 *  cycles. */
void
expectSameStreamState(const MachineState &stream, MachineState inl)
{
    for (BatchOutcome &b : inl.batches)
        b.cycles = 0;
    expectSameState(stream, inl);
}

class MachineTimingStream
    : public ::testing::TestWithParam<IsolationScheme>
{
};

TEST_P(MachineTimingStream, MatchesInlineAccesses)
{
    // One stream over both batches and the sfence.vma between them;
    // the second batch is shorter than kSplitBatchMin.
    const std::vector<std::vector<AccessRequest>> batches = {
        hostStream(1, kSplitLong), hostStream(2, 1000)};
    const MachineState stream =
        replayHostSchedule(GetParam(), 8, batches, Schedule::Stream);
    const MachineState inl =
        replayHostSchedule(GetParam(), 8, batches, Schedule::Inline);
    expectSameStreamState(stream, inl);
    EXPECT_EQ(stream.streamsOpened, 1u);
    EXPECT_LT(stream.batches[0].tlbHits, stream.batches[0].accesses);
    EXPECT_GT(stream.batches[0].faults, 0u);
    EXPECT_GT(stream.batches[0].pmptRefs + stream.batches[0].ptRefs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, MachineTimingStream,
    ::testing::Values(IsolationScheme::Pmp, IsolationScheme::PmpTable,
                      IsolationScheme::Hpmp),
    [](const ::testing::TestParamInfo<IsolationScheme> &tp) {
        return paramName(toString(tp.param));
    });

TEST(MachineTimingStream, PoisonedLineMidStreamFaultsAtTheSameRequest)
{
    const PoisonedStream poisoned;
    for (const bool stop : {true, false}) {
        SCOPED_TRACE(stop ? "stop at the fault" : "run through");
        const MachineState stream =
            replayHostSchedule(IsolationScheme::Hpmp, 8, {poisoned.reqs},
                               Schedule::Stream, stop, PoisonedStream::kPa);
        const MachineState inl =
            replayHostSchedule(IsolationScheme::Hpmp, 8, {poisoned.reqs},
                               Schedule::Inline, stop, PoisonedStream::kPa);
        expectSameStreamState(stream, inl);
        const BatchOutcome &b = stream.batches[0];
        EXPECT_EQ(b.completed,
                  stop ? PoisonedStream::kAt + 1 : kSplitLong);
        EXPECT_EQ(b.faults, 1u);
        EXPECT_EQ(b.firstFault, Fault::MachineCheck);
    }
}

TEST(MachineTimingStream, WalkTracingKeepsTheInlineSchedule)
{
    Tracer &tracer = Tracer::instance();
    tracer.enable(TraceFlag::Walk);
    if (!tracer.enabled(TraceFlag::Walk))
        GTEST_SKIP() << "tracing compiled out";
    tracer.setOutput(nullptr); // silence the walk lines

    MachineRig rig(IsolationScheme::Hpmp, 8);
    CoreModel model(rig.machine.params());
    {
        const Machine::TimingStream stream(rig.machine, model);
        EXPECT_FALSE(rig.machine.streamOpen());
        const AccessOutcome out = rig.machine.access(kVa, AccessType::Load);
        EXPECT_FALSE(out.tlbHit);
        EXPECT_GT(out.cycles, 0u);
    }
    EXPECT_EQ(rig.machine.streamsOpened(), 0u);
    tracer.disable(TraceFlag::Walk);
    tracer.setOutput(stderr);
}

/** Run `fn` on `rig`'s machine and `model` with a stream open. */
template <typename Fn>
void
withStream(MachineRig &rig, CoreModel &model, Fn &&fn)
{
    const Machine::TimingStream stream(rig.machine, model);
    fn(rig.machine, model);
}

TEST(MachineTimingStreamDeathTest, TimingReadsPanicWhileOpen)
{
    // Each statement forks before the stream's helper starts.
    MachineRig rig(IsolationScheme::Hpmp, 8);
    CoreModel model(rig.machine.params());
    const AccessRequest req{kVa, AccessType::Load};
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &) {
                                m.access(kVa, AccessType::Load);
                            }),
                 "access\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [&](Machine &m, CoreModel &) {
                                m.accessBatch({&req, 1});
                            }),
                 "batch replay with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &) { m.hier(); }),
                 "hier\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &) { m.coldReset(); }),
                 "coldReset\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &) { m.refAttr(); }),
                 "refAttr\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &, CoreModel &c) { c.cycles(); }),
                 "cycles\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &, CoreModel &c) { c.seconds(); }),
                 "seconds\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &, CoreModel &c) { c.reset(); }),
                 "reset\\(\\) with a timing stream open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &c) {
                                const Machine::TimingStream again(m, c);
                            }),
                 "a timing stream is already open");
    EXPECT_DEATH(withStream(rig, model,
                            [](Machine &m, CoreModel &) { m.setBare(); }),
                 "translation turned off under a timing stream");
    // Closed again, every read works.
    withStream(rig, model, [](Machine &m, CoreModel &) {
        m.streamAccess(kVa, AccessType::Load);
    });
    EXPECT_EQ(model.memAccesses(), 1u);
    EXPECT_GT(model.cycles(), 0u);
    EXPECT_EQ(rig.machine.refAttr().count(RefOrigin::Data), 1u);
}

/** Virt state that either schedule must leave the same. */
MachineState
replayVirtSchedule(VirtScheme scheme, bool split)
{
    VirtEnv env(CoreKind::Rocket, scheme);
    const Addr hot = env.mapGuestPages(64);
    const Addr cold = env.mapGuestPages(2048);
    VirtMachine &vm = env.vm();
    StatRegistry registry;
    vm.registerStats(registry);

    MachineState state;
    Rng rng(11);
    for (unsigned batch = 0; batch < 3; ++batch) {
        std::vector<AccessRequest> reqs(kSplitLong);
        for (AccessRequest &req : reqs) {
            const bool excursion = rng.below(8) == 0;
            req = {(excursion ? cold + pageAddr(rng.below(2048))
                              : hot + pageAddr(rng.below(64))) +
                       8 * rng.below(kPageSize / 8),
                   rng.chance(0.3) ? AccessType::Store : AccessType::Load};
        }
        BatchOutcome b;
        if (split) {
            b = vm.accessBatch(reqs);
        } else {
            for (const AccessRequest &req : reqs)
                addInline(b, vm.access(req.va, req.type));
        }
        state.batches.push_back(b);
        if (batch == 0)
            vm.hfenceVvma();
        else
            vm.hfenceGvma();
    }
    state.stats = registry.dumpJson();
    state.caches = describe(vm.hier());
    state.streamsOpened = vm.machine().streamsOpened();
    return state;
}

class VirtSplitSchedule : public ::testing::TestWithParam<VirtScheme>
{
};

TEST_P(VirtSplitSchedule, MatchesInlineAccesses)
{
    const MachineState split = replayVirtSchedule(GetParam(), true);
    const MachineState inl = replayVirtSchedule(GetParam(), false);
    expectSameState(split, inl);
    EXPECT_EQ(split.streamsOpened, 3u);
    EXPECT_EQ(inl.streamsOpened, 0u);
    EXPECT_GT(split.batches[0].nptRefs, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, VirtSplitSchedule,
    ::testing::Values(VirtScheme::Pmp, VirtScheme::Pmpt, VirtScheme::Hpmp,
                      VirtScheme::HpmpGpt),
    [](const ::testing::TestParamInfo<VirtScheme> &tp) {
        return paramName(toString(tp.param));
    });

} // namespace
} // namespace hpmp

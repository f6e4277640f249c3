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
#include <sstream>
#include <vector>

#include "base/bitfield.h"
#include "base/fault_inject.h"
#include "base/hash.h"
#include "base/rng.h"
#include "core/virt_machine.h"
#include "pmpt/pmp_table.h"
#include "pt/page_table.h"
#include "pt/walker.h"

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

constexpr Addr kPtPool = 256_MiB;
constexpr Addr kData = 4_GiB;
constexpr Addr kDenied = kData + 64_MiB; //!< outside every grant
constexpr Addr kVa = 0x40000000;
constexpr Addr kSuperVa = 0x40400000;    //!< one 2 MiB leaf
constexpr Addr kSuperPa = kData + 32_MiB;

struct MachineRig
{
    MachineRig(IsolationScheme scheme, unsigned pmptw_entries)
        : machine(params(pmptw_entries)),
          pt(machine.mem(), bumpAllocator(kPtPool), PagingMode::Sv39)
    {
        for (unsigned i = 0; i < kHot; ++i)
            pt.map(kVa + pageAddr(i), kData + pageAddr(i), Perm::rw(), true);
        pt.map(roVa(), kData + pageAddr(kHot), Perm::ro(), true);
        pt.map(supVa(), kData + pageAddr(kHot + 1), Perm::rwx(), false);
        pt.map(deniedVa(), kDenied, Perm::rw(), true);
        pt.map(kSuperVa, kSuperPa, Perm::rwx(), true, 1);

        HpmpUnit &unit = machine.hpmp();
        if (scheme != IsolationScheme::Pmp) {
            table = std::make_unique<PmpTable>(
                machine.mem(), bumpAllocator(64_MiB), 2);
            table->setPerm(kPtPool, 16_MiB, Perm::rw());
            table->setPerm(kData, 64_MiB, Perm::rwx());
        }
        switch (scheme) {
          case IsolationScheme::Pmp:
            unit.programSegment(0, kPtPool, 16_MiB, Perm::rw());
            unit.programSegment(1, kData, 64_MiB, Perm::rwx());
            break;
          case IsolationScheme::Hpmp:
            unit.programSegment(0, kPtPool, 16_MiB, Perm::rw());
            unit.programTable(1, 0, 16_GiB, table->rootPa());
            break;
          default:
            unit.programTable(0, 0, 16_GiB, table->rootPa());
            break;
        }
        machine.setSatp(pt.rootPa(), PagingMode::Sv39);
        machine.setPriv(PrivMode::User);
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

    Machine machine;
    PageTable pt;
    std::unique_ptr<PmpTable> table;
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
 * Recorded before AccessOutcome was filled in place; an
 * intended change to simulated output re-records them (the failure
 * message prints each new digest).
 */
TEST(MachineFastPathGolden, OpLogDigestsMatchRecorded)
{
    const GoldenDigest cases[] = {
        {IsolationScheme::Pmp, 0, 1, 0x2b308fe3db584e15ULL},
        {IsolationScheme::Pmp, 0, 2, 0x3c441f6d56d42e3cULL},
        {IsolationScheme::Pmp, 0, 3, 0xe0d2758a3e191e6eULL},
        {IsolationScheme::PmpTable, 0, 1, 0xf87a0b7330842918ULL},
        {IsolationScheme::PmpTable, 0, 2, 0x1c0c011ef6058606ULL},
        {IsolationScheme::PmpTable, 0, 3, 0xf3c31087a2d9a0a2ULL},
        {IsolationScheme::Hpmp, 0, 1, 0xec7dcdc9793641f7ULL},
        {IsolationScheme::Hpmp, 0, 2, 0x7e37dc4e8fbb702cULL},
        {IsolationScheme::Hpmp, 0, 3, 0x9e8ffa08b033bca8ULL},
        {IsolationScheme::Hpmp, 8, 1, 0xed4ee84207733250ULL},
        {IsolationScheme::Hpmp, 8, 2, 0xcef88df269f976e1ULL},
        {IsolationScheme::Hpmp, 8, 3, 0x37392bd1e3142b96ULL},
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

constexpr Addr kNptPool = 128_MiB;
constexpr Addr kGptPool = 160_MiB;
constexpr Addr kGuestData = 1_GiB;
constexpr Addr kGuestDenied = 3_GiB;  //!< no grant covers it
constexpr Addr kGva = 0x40000000;
constexpr Addr kGSuperVa = 0x40400000; //!< 2 MiB in both stages
constexpr Addr kGSuperGpa = kGuestData + 32_MiB;
constexpr Addr kGSplitVa = 0x40600000; //!< 2 MiB guest, 4 KiB nested
constexpr Addr kGSplitGpa = kGuestData + 34_MiB;
constexpr unsigned kSplitPages = 16;   //!< nested-mapped part of it

struct VirtRig
{
    explicit VirtRig(IsolationScheme scheme)
        : vm(rocketParams()),
          npt(vm.mem(), bumpAllocator(kNptPool), PagingMode::Sv39, 2),
          gpt(vm.mem(), bumpAllocator(kGptPool), PagingMode::Sv39)
    {
        for (Addr gpa = kGptPool; gpa < kGptPool + 1_MiB; gpa += kPageSize)
            npt.map(gpa, gpa, Perm::rw(), true);
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

        HpmpUnit &unit = vm.hpmp();
        unit.programSegment(0, 0, 128_MiB, Perm::none());
        if (scheme != IsolationScheme::Pmp) {
            table = std::make_unique<PmpTable>(vm.mem(),
                                               bumpAllocator(64_MiB), 2);
            table->setPerm(kNptPool, 32_MiB, Perm::rw());
            table->setPerm(kGptPool, 32_MiB, Perm::rw());
            table->setPerm(kGuestData, 1_GiB, Perm::rwx());
        }
        switch (scheme) {
          case IsolationScheme::Pmp:
            unit.programSegment(1, kNptPool, 32_MiB, Perm::rw());
            unit.programSegment(2, kGptPool, 32_MiB, Perm::rw());
            unit.programSegment(3, kGuestData, 1_GiB, Perm::rwx());
            break;
          case IsolationScheme::Hpmp:
            unit.programSegment(1, kNptPool, 32_MiB, Perm::rw());
            unit.programTable(2, 0, 16_GiB, table->rootPa());
            break;
          default:
            unit.programTable(1, 0, 16_GiB, table->rootPa());
            break;
        }
        vm.setHgatp(npt.rootPa());
        vm.setVsatp(gpt.rootPa());
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

    VirtMachine vm;
    PageTable npt;
    PageTable gpt;
    std::unique_ptr<PmpTable> table;
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
        {IsolationScheme::Pmp, 0, 1, 0xcc407e0bc38611a2ULL},
        {IsolationScheme::Pmp, 0, 2, 0x5fb6f14fc3267118ULL},
        {IsolationScheme::Pmp, 0, 3, 0xc2cb82e4f45403fbULL},
        {IsolationScheme::PmpTable, 0, 1, 0x29321a1390ead024ULL},
        {IsolationScheme::PmpTable, 0, 2, 0x3462be32531a7d4aULL},
        {IsolationScheme::PmpTable, 0, 3, 0xd80379b3eb954265ULL},
        {IsolationScheme::Hpmp, 0, 1, 0xf3a65a2381b181a2ULL},
        {IsolationScheme::Hpmp, 0, 2, 0x845b8ffdcdb6e0bcULL},
        {IsolationScheme::Hpmp, 0, 3, 0x4c44603574f08fbaULL},
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

} // namespace
} // namespace hpmp

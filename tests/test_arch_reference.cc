/** @file Randomized differential tests of the timing model's lookup
 * structures against a naive true-LRU reference: every Cache, Tlb,
 * CacheHierarchy, TlbHierarchy, Polb, SetAssocArray and
 * BranchPredictor result (hit or miss, latency, writebacks, counters)
 * must match a list-per-set model that shares none of their code.
 * The streams repeat the previous line or page in long runs, so the
 * same-line / same-page memos are exercised, and flush or invalidate
 * the memoized entry in the middle of such a run. */

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <vector>

#include "arch/branch.hh"
#include "arch/cache.hh"
#include "arch/polb.hh"
#include "arch/set_assoc.hh"
#include "arch/tlb.hh"
#include "common/random.hh"

using namespace upr;

namespace
{

/** True-LRU sets as lists, most recently used first. */
class RefLru
{
  public:
    struct Entry
    {
        std::uint64_t tag;
        bool dirty;
    };

    /** Result of one access. */
    struct Outcome
    {
        bool hit;
        bool evicted; //!< the miss displaced the LRU entry...
        Entry victim; //!< ...this one
    };

    RefLru(std::uint64_t sets, std::uint64_t ways)
        : ways_(ways), sets_(sets)
    {}

    /** Hit moves the entry to the front; a miss fills it there. */
    Outcome
    access(std::uint64_t set, std::uint64_t tag, bool is_write)
    {
        std::list<Entry> &s = sets_[set];
        for (auto it = s.begin(); it != s.end(); ++it) {
            if (it->tag == tag) {
                Entry e = *it;
                e.dirty = e.dirty || is_write;
                s.erase(it);
                s.push_front(e);
                return {true, false, {}};
            }
        }
        Outcome o{false, s.size() == ways_, {}};
        if (o.evicted) {
            o.victim = s.back();
            s.pop_back();
        }
        s.push_front({tag, is_write});
        return o;
    }

    bool
    contains(std::uint64_t set, std::uint64_t tag) const
    {
        for (const Entry &e : sets_[set])
            if (e.tag == tag)
                return true;
        return false;
    }

    void
    erase(std::uint64_t set, std::uint64_t tag)
    {
        sets_[set].remove_if([&](const Entry &e) { return e.tag == tag; });
    }

    void
    clear()
    {
        for (std::list<Entry> &s : sets_)
            s.clear();
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const std::list<Entry> &s : sets_)
            n += s.size();
        return n;
    }

  private:
    std::uint64_t ways_;
    std::vector<std::list<Entry>> sets_;
};

/** Reference cache level: line, set and tag computed by division. */
class RefCache
{
  public:
    RefCache(Bytes size, std::uint32_t ways, Bytes line_bytes)
        : line_(line_bytes), sets_(size / (ways * line_bytes)),
          lru_(sets_, ways)
    {}

    bool
    access(SimAddr addr, bool is_write)
    {
        const std::uint64_t line = addr / line_;
        const RefLru::Outcome o =
            lru_.access(line % sets_, line / sets_, is_write);
        ++(o.hit ? hits : misses);
        writebacks += o.evicted && o.victim.dirty;
        return o.hit;
    }

    void clear() { lru_.clear(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;

  private:
    Bytes line_;
    std::uint64_t sets_;
    RefLru lru_;
};

/** Reference TLB level over 4 KiB pages, modulo set indexing. */
class RefTlb
{
  public:
    RefTlb(std::uint32_t entries, std::uint32_t ways)
        : sets_(entries / ways), lru_(sets_, ways)
    {}

    bool
    access(SimAddr va)
    {
        const std::uint64_t vpn = va / Layout::kPageSize;
        const bool hit = lru_.access(vpn % sets_, vpn, false).hit;
        ++(hit ? hits : misses);
        return hit;
    }

    void clear() { lru_.clear(); }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    std::uint64_t sets_;
    RefLru lru_;
};

/**
 * An address stream with long same-line runs: most steps stay on the
 * previous line (a new offset inside it), the rest jump to a random
 * line of a working set @p span_lines long, or to its hot first part.
 */
class Stream
{
  public:
    Stream(std::uint64_t seed, std::uint64_t span_lines, Bytes line_bytes)
        : rng_(seed), span_(span_lines), lineBytes_(line_bytes)
    {}

    SimAddr
    next()
    {
        const std::uint64_t r = rng_.next();
        if (r % 100 < 45) {
            // Stay on the line: a new byte inside it.
        } else if (r % 100 < 75) {
            line_ = (r >> 8) % (span_ / 4 + 1); // hot quarter
        } else {
            line_ = (r >> 8) % span_;
        }
        return 0x10000000 + line_ * lineBytes_ + (r >> 40) % lineBytes_;
    }

    /** True with probability @p per_mille / 1000. */
    bool
    chance(unsigned per_mille)
    {
        return rng_.next() % 1000 < per_mille;
    }

  private:
    Rng rng_;
    std::uint64_t span_;
    Bytes lineBytes_;
    std::uint64_t line_ = 0;
};

struct Geometry
{
    Bytes size;
    std::uint32_t ways;
};

} // namespace

TEST(ArchReference, CacheMatchesTrueLruModel)
{
    const Geometry geometries[] = {
        {1024, 1},      // direct-mapped, 16 sets
        {2048, 2},      // 16 sets
        {32 * 1024, 8}, // the L1D shape, 64 sets
        {4096, 16},     // 4 sets of 16 ways
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.size << " B, " << g.ways
                                        << "-way");
        Cache cache("c", g.size, g.ways, 64);
        RefCache ref(g.size, g.ways, 64);
        Stream s(g.size * 31 + g.ways, 3 * g.size / 64, 64);
        for (int step = 0; step < 60000; ++step) {
            const SimAddr a = s.next();
            const bool w = s.chance(300);
            ASSERT_EQ(cache.access(a, w), ref.access(a, w))
                << "step " << step;
            if (s.chance(1)) {
                // Mid-run: the next access often repeats the line.
                cache.flush();
                ref.clear();
            }
        }
        EXPECT_EQ(cache.hits(), ref.hits);
        EXPECT_EQ(cache.misses(), ref.misses);
        EXPECT_EQ(cache.stats().lookup("writebacks"), ref.writebacks);
        EXPECT_GT(ref.writebacks, 100u);
        EXPECT_GT(ref.misses, 1000u);
    }
}

TEST(ArchReference, RepeatedLineAfterFlushMisses)
{
    Cache cache("c", 1024, 2, 64);
    EXPECT_FALSE(cache.access(0x1000, true));
    EXPECT_TRUE(cache.access(0x1008, false));
    cache.flush();
    EXPECT_FALSE(cache.access(0x1010, false)); // memo dropped too
    EXPECT_TRUE(cache.access(0x1018, true));
}

TEST(ArchReference, TlbMatchesTrueLruModel)
{
    const Geometry geometries[] = {
        {64, 4},   // the L1 dTLB: 16 sets, masked index
        {1536, 4}, // the STLB: 384 sets, modulo index
        {32, 32},  // one fully-associative set
    };
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(testing::Message() << g.size << " entries, "
                                        << g.ways << "-way");
        Tlb tlb("t", static_cast<std::uint32_t>(g.size), g.ways);
        RefTlb ref(static_cast<std::uint32_t>(g.size), g.ways);
        Stream s(g.size + g.ways, 3 * g.size, Layout::kPageSize);
        for (int step = 0; step < 60000; ++step) {
            const SimAddr va = s.next();
            ASSERT_EQ(tlb.access(va), ref.access(va)) << "step " << step;
            if (s.chance(1)) {
                tlb.flush();
                ref.clear();
            }
        }
        EXPECT_EQ(tlb.stats().lookup("hits"), ref.hits);
        EXPECT_EQ(tlb.misses(), ref.misses);
        EXPECT_GT(ref.misses, 1000u);
    }
}

TEST(ArchReference, HierarchiesMatchComposedModels)
{
    MachineParams small;
    small.l1Size = 1024;
    small.l1Ways = 2;
    small.l2Size = 4096;
    small.l2Ways = 4;
    small.l3Size = 16 * 1024;
    small.l3Ways = 8;
    for (const MachineParams &p : {MachineParams{}, small}) {
        SCOPED_TRACE(testing::Message() << "L1 " << p.l1Size << " B");
        CacheHierarchy caches(p);
        TlbHierarchy tlbs(p);
        RefCache r1(p.l1Size, p.l1Ways, p.cacheLineBytes);
        RefCache r2(p.l2Size, p.l2Ways, p.cacheLineBytes);
        RefCache r3(p.l3Size, p.l3Ways, p.cacheLineBytes);
        RefTlb t1(p.l1TlbEntries, p.l1TlbWays);
        RefTlb t2(p.l2TlbEntries, p.l2TlbWays);
        std::uint64_t walks = 0;
        // The span reaches past the L3 and past the STLB's reach.
        Stream s(p.l1Size, 4 * p.l3Size / p.cacheLineBytes,
                 p.cacheLineBytes);
        for (int step = 0; step < 80000; ++step) {
            SimAddr va = s.next();
            if (s.chance(500))
                va |= Layout::kNvmBase; // the same line in NVM
            const bool w = s.chance(300);
            const bool nvm = Layout::isNvm(va);

            Cycles tlb_lat = p.l1TlbLatency;
            if (!t1.access(va)) {
                tlb_lat += p.l2TlbHitLatency;
                if (!t2.access(va)) {
                    tlb_lat += p.pageWalkLatency;
                    ++walks;
                }
            }
            ASSERT_EQ(tlbs.access(va), tlb_lat) << "step " << step;

            using S = CacheHierarchy::ServedBy;
            Cycles lat = p.l1Latency;
            S want = S::L1;
            if (!r1.access(va, w)) {
                lat += p.l2Latency;
                want = S::L2;
                if (!r2.access(va, w)) {
                    lat += p.l3Latency;
                    want = S::L3;
                    if (!r3.access(va, w)) {
                        lat += nvm ? p.nvmLatency : p.dramLatency;
                        want = nvm ? S::Nvm : S::Dram;
                    }
                }
            }
            S served;
            ASSERT_EQ(caches.access(va, w, nvm, &served), lat)
                << "step " << step;
            ASSERT_EQ(served, want) << "step " << step;

            if (s.chance(1)) {
                caches.flushAll();
                tlbs.flushAll();
                for (RefCache *r : {&r1, &r2, &r3})
                    r->clear();
                t1.clear();
                t2.clear();
            }
        }
        const RefCache *refs[] = {&r1, &r2, &r3};
        Cache *levels[] = {&caches.l1(), &caches.l2(), &caches.l3()};
        for (int i = 0; i < 3; ++i) {
            EXPECT_EQ(levels[i]->hits(), refs[i]->hits) << "L" << i + 1;
            EXPECT_EQ(levels[i]->misses(), refs[i]->misses) << "L" << i + 1;
            EXPECT_EQ(levels[i]->stats().lookup("writebacks"),
                      refs[i]->writebacks)
                << "L" << i + 1;
        }
        EXPECT_EQ(tlbs.l1().misses(), t1.misses);
        EXPECT_EQ(tlbs.l2().misses(), t2.misses);
        EXPECT_EQ(tlbs.walks(), walks);
        EXPECT_GT(r3.misses, 100u);
        EXPECT_GT(walks, 100u);
    }
}

TEST(ArchReference, FullyAssociativeArrayWithInvalidation)
{
    // One 32-way set, the POLB's shape; payloads are checked too.
    SetAssocArray<std::uint64_t, std::uint64_t> arr(1, 32);
    RefLru ref(1, 32);
    Rng rng(0x5E7);
    std::uint64_t last = 0;
    int evictions = 0;
    for (int step = 0; step < 60000; ++step) {
        const std::uint64_t r = rng.next();
        const std::uint64_t tag = r % 100 < 50 ? last : (r >> 8) % 48;
        last = tag;
        if (r % 1000 < 5) {
            arr.invalidate(0, tag); // often the entry just used
            ref.erase(0, tag);
        } else if (r % 1000 < 7) {
            arr.invalidateAll();
            ref.clear();
        } else if (std::uint64_t *p = arr.lookup(0, tag)) {
            ASSERT_TRUE(ref.contains(0, tag)) << "step " << step;
            ASSERT_EQ(*p, tag * 3) << "step " << step;
            ref.access(0, tag, false);
        } else {
            std::uint64_t evicted = ~0ULL;
            const auto fill = arr.insert(0, tag, tag * 3, &evicted);
            const RefLru::Outcome o = ref.access(0, tag, false);
            ASSERT_FALSE(o.hit) << "step " << step;
            ASSERT_EQ(fill.evicted, o.evicted) << "step " << step;
            if (o.evicted) {
                ++evictions;
                ASSERT_EQ(evicted, o.victim.tag * 3) << "step " << step;
            }
            ASSERT_EQ(*fill.slot, tag * 3);
        }
        ASSERT_EQ(arr.validCount(), ref.size()) << "step " << step;
    }
    EXPECT_GT(evictions, 100);
}

TEST(ArchReference, PolbMatchesTrueLruModelAcrossEpochs)
{
    MachineParams params;
    AddressSpace space;
    PoolManager mgr(space, Placement::Sequential);
    Polb polb(params, mgr);
    std::vector<PoolId> pools;
    for (int i = 0; i < 40; ++i) // more pools than POLB entries
        pools.push_back(mgr.createPool("p" + std::to_string(i), 1 << 16));

    RefLru ref(1, params.polbEntries);
    Rng rng(0x9011B);
    std::size_t cur = 0;
    std::uint64_t hits = 0;
    for (int step = 0; step < 40000; ++step) {
        const std::uint64_t r = rng.next();
        if (r % 100 >= 60)
            cur = (r >> 8) % pools.size();
        if (r % 1000 < 3) {
            // Re-map the current pool mid-run: a new epoch drops
            // every entry, the memoized one included.
            mgr.detach(pools[cur]);
            pools[cur] = mgr.openPool("p" + std::to_string(cur));
            ref.clear();
        }
        const PoolId id = pools[cur];
        const PoolOffset off = (r >> 20) % (1 << 16);
        const XlatResult x = polb.ra2va(id, off);
        const bool hit = ref.access(0, id, false).hit;
        hits += hit;
        ASSERT_EQ(x.hit, hit) << "step " << step;
        ASSERT_EQ(x.value, mgr.baseOf(id) + off) << "step " << step;
        ASSERT_EQ(x.latency, params.polbHitLatency +
                                 (hit ? 0 : params.powLatency));
    }
    EXPECT_EQ(polb.accesses() - polb.walkCount(), hits);
    EXPECT_GT(polb.walkCount(), 1000u);
}

TEST(ArchReference, BranchPredictorMatchesNaiveGshare)
{
    MachineParams params;
    BranchPredictor bp(params);
    std::vector<int> table(params.branchTableEntries, 2);
    std::uint64_t history = 0;
    std::uint64_t mispredicts = 0;
    Rng rng(0xB4A);
    for (int step = 0; step < 200000; ++step) {
        const std::uint64_t r = rng.next();
        const std::uint64_t site = r % 64;
        // Mostly-biased sites, some alternating, some random.
        const bool taken = site < 32   ? r % 100 < 90
                           : site < 48 ? step % 2 == 0
                                       : (r >> 32) & 1;
        int &ctr = table[(site ^ history) &
                         (params.branchTableEntries - 1)];
        const bool want_wrong = (ctr >= 2) != taken;
        if (taken) {
            if (ctr < 3)
                ++ctr;
        } else if (ctr > 0) {
            --ctr;
        }
        history = ((history << 1) | taken) &
                  ((1ULL << params.branchHistoryBits) - 1);
        mispredicts += want_wrong;
        ASSERT_EQ(bp.branch(site, taken), want_wrong) << "step " << step;
    }
    EXPECT_EQ(bp.branches(), 200000u);
    EXPECT_EQ(bp.mispredicts(), mispredicts);
    EXPECT_GT(mispredicts, 1000u);
}

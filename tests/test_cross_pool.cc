/** @file Cross-pool object graphs: relative pointers embed their
 * pool ID, so a persistent object in pool A may point at one in pool
 * B; both pools can relocate independently and the graph survives.
 * Also covers independent detach faulting and image round-trips of
 * entangled pools. */

#include <gtest/gtest.h>

#include "containers/memory_env.hh"
#include "temp_path.hh"

using namespace upr;

namespace
{

struct Node
{
    Ptr<Node> next;
    std::uint64_t value = 0;
};

Runtime::Config
makeConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.seed = 83;
    return cfg;
}

} // namespace

class CrossPool : public ::testing::TestWithParam<Version>
{
  protected:
    CrossPool() : rt(makeConfig(GetParam())), scope(rt)
    {
        if (GetParam() != Version::Volatile) {
            poolA = rt.createPool("A", 8 << 20);
            poolB = rt.createPool("B", 8 << 20);
        }
    }

    Runtime rt;
    RuntimeScope scope;
    PoolId poolA = 0;
    PoolId poolB = 0;
};

TEST_P(CrossPool, PointerFromPoolAToPoolB)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    MemEnv envA = MemEnv::persistentEnv(rt, poolA);
    MemEnv envB = MemEnv::persistentEnv(rt, poolB);

    Ptr<Node> a = envA.alloc<Node>();
    Ptr<Node> b = envB.alloc<Node>();
    b.setField(&Node::value, std::uint64_t{0xB0B});
    a.setPtrField(&Node::next, b);

    // The stored pointer is relative and carries pool B's ID.
    const PtrBits stored = rt.space().read<PtrBits>(a.resolve());
    EXPECT_EQ(PtrRepr::determineY(stored), PtrForm::Relative);
    EXPECT_EQ(PtrRepr::poolOf(stored), poolB);
    EXPECT_EQ(a.ptrField(&Node::next).field(&Node::value), 0xB0Bu);
}

TEST_P(CrossPool, GraphSurvivesIndependentRelocation)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    MemEnv envA = MemEnv::persistentEnv(rt, poolA);
    MemEnv envB = MemEnv::persistentEnv(rt, poolB);

    // Chain alternating between pools: a0 -> b0 -> a1 -> b1 -> ...
    std::vector<Ptr<Node>> chain;
    for (int i = 0; i < 20; ++i) {
        MemEnv &env = (i % 2) ? envB : envA;
        chain.push_back(env.alloc<Node>());
        chain.back().setField(&Node::value, std::uint64_t(i));
    }
    for (int i = 0; i + 1 < 20; ++i)
        chain[i].setPtrField(&Node::next, chain[i + 1]);

    // Relocate only pool B.
    rt.pools().detach(poolB);
    rt.pools().openPool("B");
    // Then only pool A — twice, for good measure.
    rt.pools().detach(poolA);
    rt.pools().openPool("A");
    rt.pools().detach(poolA);
    rt.pools().openPool("A");

    Ptr<Node> cur = chain[0];
    for (int i = 0; i < 20; ++i) {
        ASSERT_EQ(cur.field(&Node::value), std::uint64_t(i));
        cur = cur.ptrField(&Node::next);
    }
    EXPECT_TRUE(cur.isNull());
}

TEST_P(CrossPool, DetachingOnePoolFaultsOnlyItsSide)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    MemEnv envA = MemEnv::persistentEnv(rt, poolA);
    MemEnv envB = MemEnv::persistentEnv(rt, poolB);

    Ptr<Node> a = envA.alloc<Node>();
    Ptr<Node> b = envB.alloc<Node>();
    a.setPtrField(&Node::next, b);
    a.setField(&Node::value, std::uint64_t{1});

    rt.pools().detach(poolB);

    // Pool A objects stay reachable.
    EXPECT_EQ(a.field(&Node::value), 1u);
    // Following the cross-pool edge faults with PoolDetached.
    Ptr<Node> loaded = a.ptrField(&Node::next);
    try {
        (void)loaded.field(&Node::value);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::PoolDetached);
    }

    // Reattach heals the edge.
    rt.pools().openPool("B");
    EXPECT_NO_THROW((void)loaded.field(&Node::value));
}

TEST_P(CrossPool, EntangledPoolsRoundTripThroughImages)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    MemEnv envA = MemEnv::persistentEnv(rt, poolA);
    MemEnv envB = MemEnv::persistentEnv(rt, poolB);

    Ptr<Node> a = envA.alloc<Node>();
    Ptr<Node> b = envB.alloc<Node>();
    a.setPtrField(&Node::next, b);
    b.setField(&Node::value, std::uint64_t{0x5EED});
    rt.pools().pool(poolA).setRootOff(PtrRepr::offsetOf(a.bits()));

    const test::TempPath pa("xa.img");
    const test::TempPath pb("xb.img");
    rt.pools().saveImage(poolA, pa);
    rt.pools().saveImage(poolB, pb);

    // A fresh process loads both images (any order, new addresses).
    Runtime rt2(makeConfig(GetParam()));
    RuntimeScope scope2(rt2);
    const PoolId b2 = rt2.pools().loadImage(pb, "B");
    const PoolId a2 = rt2.pools().loadImage(pa, "A");
    EXPECT_EQ(a2, poolA);
    EXPECT_EQ(b2, poolB);

    Ptr<Node> root = Ptr<Node>::fromBits(PtrRepr::makeRelative(
        a2, rt2.pools().pool(a2).rootOff()));
    EXPECT_EQ(root.ptrField(&Node::next).field(&Node::value),
              0x5EEDu);
}

TEST_P(CrossPool, ComparisonsAcrossPools)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    MemEnv envA = MemEnv::persistentEnv(rt, poolA);
    MemEnv envB = MemEnv::persistentEnv(rt, poolB);
    Ptr<Node> a = envA.alloc<Node>();
    Ptr<Node> b = envB.alloc<Node>();
    EXPECT_FALSE(a == b);
    EXPECT_TRUE(a != b);
    // Ordering is by virtual address — stable within one attach.
    const bool lt1 = a < b;
    const bool lt2 = b < a;
    EXPECT_NE(lt1, lt2);
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, CrossPool,
    ::testing::Values(Version::Sw, Version::Hw, Version::Explicit),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

/** @file Integration tests for runtime-level persistent transactions
 * (Sec VI): an application transaction covers stores made by
 * unmodified "legacy library" code (our containers), with commit,
 * abort, and crash-recovery semantics. */

#include <gtest/gtest.h>

#include <fstream>

#include "containers/rb_tree.hh"
#include "nvm/txn.hh"
#include "temp_path.hh"

using namespace upr;

namespace
{

using Tree = RbTree<std::uint64_t, std::uint64_t>;

Runtime::Config
makeConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.seed = 23;
    return cfg;
}

} // namespace

class RuntimeTxn : public ::testing::TestWithParam<Version>
{
  protected:
    RuntimeTxn()
        : rt(makeConfig(GetParam())), scope(rt),
          pool(rt.createPool("txn", 32 << 20)),
          env(MemEnv::persistentEnv(rt, pool))
    {}

    Runtime rt;
    RuntimeScope scope;
    PoolId pool;
    MemEnv env;
};

TEST_P(RuntimeTxn, CommitKeepsLibraryWrites)
{
    Tree tree(env);
    tree.insert(1, 10);

    rt.beginTxn(pool);
    tree.insert(2, 20); // library writes inside the app's txn
    tree.insert(3, 30);
    rt.commitTxn();

    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree.find(2).value(), 20u);
    tree.validate();
}

TEST_P(RuntimeTxn, AbortRollsLibraryWritesBack)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP() << "transactions are no-ops without NVM";

    Tree tree(env);
    for (std::uint64_t i = 0; i < 50; ++i)
        tree.insert(i, i);

    rt.beginTxn(pool);
    for (std::uint64_t i = 50; i < 80; ++i)
        tree.insert(i, i);
    tree.erase(10);
    tree.erase(20);
    EXPECT_EQ(tree.size(), 78u);
    rt.abortTxn();

    // The tree is exactly as before the transaction — including the
    // allocator metadata for the nodes that were allocated inside it.
    EXPECT_EQ(tree.size(), 50u);
    tree.validate();
    for (std::uint64_t i = 0; i < 50; ++i)
        ASSERT_EQ(tree.find(i).value(), i);
    for (std::uint64_t i = 50; i < 80; ++i)
        ASSERT_FALSE(tree.contains(i));

    // The pool is fully usable afterwards.
    tree.insert(99, 999);
    EXPECT_EQ(tree.find(99).value(), 999u);
    tree.validate();
}

TEST_P(RuntimeTxn, CrashRecoveryFromImage)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();

    Tree tree(env);
    for (std::uint64_t i = 0; i < 20; ++i)
        tree.insert(i, i * 2);
    rt.pools().pool(pool).setRootOff(
        PtrRepr::offsetOf(tree.header().bits()));

    rt.beginTxn(pool);
    for (std::uint64_t i = 20; i < 40; ++i)
        tree.insert(i, i * 2);

    // "Crash": snapshot the pool image mid-transaction and recover it
    // in a fresh process.
    Pool crashed("crashed", Backing(rt.pools().pool(pool).backing()));
    EXPECT_TRUE(Txn::recover(crashed));
    rt.abortTxn(); // tidy up the original

    // Attach the recovered image in a new runtime and re-check.
    Runtime rt2(makeConfig(GetParam()));
    RuntimeScope scope2(rt2);
    const test::TempPath path("crash.img");
    {
        // Round-trip the recovered image through a file, as a new
        // process would receive it.
        std::ofstream os(path, std::ios::binary);
        const auto &raw = crashed.backing().raw();
        os.write(reinterpret_cast<const char *>(raw.data()),
                 static_cast<std::streamsize>(raw.size()));
    }
    const PoolId p2 = rt2.pools().loadImage(path, "recovered");
    MemEnv env2 = MemEnv::persistentEnv(rt2, p2);
    Tree reopened(env2, Ptr<Tree::Header>::fromBits(
                            PtrRepr::makeRelative(
                                p2, rt2.pools().pool(p2).rootOff())));
    reopened.validate();
    EXPECT_EQ(reopened.size(), 20u); // pre-txn state exactly
    for (std::uint64_t i = 0; i < 20; ++i)
        ASSERT_EQ(reopened.find(i).value(), i * 2);
}

TEST_P(RuntimeTxn, NestedBeginRejected)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    rt.beginTxn(pool);
    EXPECT_THROW(rt.beginTxn(pool), Fault);
    rt.commitTxn();
}

TEST_P(RuntimeTxn, VolatileWritesNotLogged)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();

    rt.beginTxn(pool);
    // A volatile (DRAM) store inside the transaction must not be
    // logged or rolled back.
    const SimAddr v = rt.mallocBytes(8);
    rt.storeData<std::uint64_t>(v, 0xAA);
    rt.abortTxn();
    EXPECT_EQ(rt.loadData<std::uint64_t>(v), 0xAAu);
}

TEST_P(RuntimeTxn, BeginOnDetachedPoolFaults)
{
    if (GetParam() == Version::Volatile)
        GTEST_SKIP();
    rt.pools().detach(pool);
    EXPECT_THROW(rt.beginTxn(pool), Fault);
}

INSTANTIATE_TEST_SUITE_P(
    AllVersions, RuntimeTxn,
    ::testing::Values(Version::Volatile, Version::Sw, Version::Hw,
                      Version::Explicit),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

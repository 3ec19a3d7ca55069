/** @file Unit tests for the Backing persistence domain (shadowed
 * writes, flush/fence discipline, crash images, random retention),
 * the overflow-safe bounds checks, CRC-32, the pinned undo-log wire
 * format, and the CrashInjector. */

#include <gtest/gtest.h>

#include "common/crc32.hh"
#include "crash/crash_injector.hh"
#include "kvstore/kv_store.hh"
#include "mem/backing.hh"
#include "nvm/log_format.hh"

using namespace upr;

namespace
{

std::uint64_t
peek(const std::vector<std::uint8_t> &image, Bytes off)
{
    std::uint64_t v;
    std::memcpy(&v, image.data() + off, sizeof(v));
    return v;
}

void
poke(Backing &b, Bytes off, std::uint64_t v)
{
    b.write(off, &v, sizeof(v));
}

std::uint64_t
read64(const Backing &b, Bytes off)
{
    std::uint64_t v;
    b.read(off, &v, sizeof(v));
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// CRC-32
// ---------------------------------------------------------------------

TEST(Crc32, KnownVector)
{
    // The canonical IEEE check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32, ChainingMatchesOneShot)
{
    const char data[] = "the quick brown fox";
    const std::uint32_t whole = crc32(data, sizeof(data));
    std::uint32_t chained = crc32(data, 7);
    chained = crc32Update(chained, data + 7, sizeof(data) - 7);
    EXPECT_EQ(chained, whole);
}

TEST(Crc32, DetectsSingleBitFlip)
{
    std::uint8_t buf[64] = {};
    const std::uint32_t clean = crc32(buf, sizeof(buf));
    buf[40] ^= 0x10;
    EXPECT_NE(crc32(buf, sizeof(buf)), clean);
}

TEST(Crc32, SlicingMatchesBytewiseReference)
{
    // The textbook one-byte-per-step loop, independent of the
    // library's tables.
    const auto reference = [](const std::uint8_t *p, std::size_t n) {
        std::uint32_t crc = ~0u;
        for (std::size_t i = 0; i < n; ++i) {
            crc ^= p[i];
            for (int k = 0; k < 8; ++k)
                crc = (crc & 1) ? (0xEDB8'8320u ^ (crc >> 1)) : (crc >> 1);
        }
        return ~crc;
    };
    std::uint8_t buf[300 + 8];
    for (std::size_t i = 0; i < sizeof(buf); ++i)
        buf[i] = static_cast<std::uint8_t>(i * 131 + 7);
    for (std::size_t start = 0; start < 8; ++start) {
        for (std::size_t n = 0; n <= 300; ++n) {
            ASSERT_EQ(crc32(buf + start, n), reference(buf + start, n))
                << "start " << start << " length " << n;
        }
    }
}

// ---------------------------------------------------------------------
// Undo-log wire format: checksums and crash images, pinned
// ---------------------------------------------------------------------

TEST(WireFormat, ControlChecksumsArePinned)
{
    EXPECT_EQ(logfmt::controlCrc({40, 3, 1, 0}), 0x53db'0befu);
    EXPECT_EQ(logfmt::controlCrc({0, 0, 0, 0}), 0x7bd5'c66fu);
    // The stored checksum field is not part of its own input.
    EXPECT_EQ(logfmt::controlCrc({0, 0, 0, 0xFFFF'FFFFu}), 0x7bd5'c66fu);
}

TEST(WireFormat, EntryChecksumsArePinned)
{
    std::uint8_t small[8];
    for (std::size_t i = 0; i < sizeof(small); ++i)
        small[i] = static_cast<std::uint8_t>(i);
    logfmt::LogEntry e{};
    e.length = sizeof(small);
    e.poolOffset = 0x1040;
    EXPECT_EQ(logfmt::entryCrc(e, 3, small), 0x36e1'391cu);

    std::uint8_t big[80];
    for (std::size_t i = 0; i < sizeof(big); ++i)
        big[i] = static_cast<std::uint8_t>(i * 7 + 1);
    e.length = sizeof(big);
    e.poolOffset = 0;
    EXPECT_EQ(logfmt::entryCrc(e, 0xdead'beefu, big), 0xcb84'ca36u);
}

namespace
{

using GoldenTree = RbTree<std::uint64_t, std::uint64_t>;

/**
 * Run a fixed undo-engine RB-tree workload (16 setup keys, then
 * inserts, overwrites and erases, one transaction each) under an
 * injector armed at @p crashAt. Returns the injector's persistence
 * event count and, if it fired, the CRC-32 of its DiscardUnfenced
 * image.
 */
std::pair<std::uint64_t, std::uint32_t>
undoCrashImage(std::uint64_t crashAt)
{
    CrashInjector inj(CrashMode::DiscardUnfenced);
    inj.arm(crashAt);
    try {
        Runtime::Config cfg;
        cfg.version = Version::Hw;
        cfg.seed = 77;
        Runtime rt(cfg);
        RuntimeScope scope(rt);
        const PoolId pool = rt.createPool("golden", 1 << 20);
        MemEnv env = MemEnv::persistentEnv(rt, pool);
        KvStore<GoldenTree> store(env);
        for (std::uint64_t k = 0; k < 16; ++k)
            store.set(k, k * 10);
        inj.attach(rt.pools().pool(pool).backing());
        for (std::uint64_t i = 0; i < 12; ++i) {
            rt.beginTxn(pool);
            if (i % 4 == 3) {
                store.index().erase(i);
            } else {
                store.set(100 + i, i);
                store.set(i, i * 1000);
            }
            rt.commitTxn();
        }
    } catch (const SimulatedCrash &) {
    }
    const std::uint32_t crc =
        inj.fired() ? crc32(inj.image().data(), inj.image().size()) : 0;
    return {inj.events(), crc};
}

} // namespace

TEST(WireFormat, UndoCrashImagesArePinned)
{
    // The event count pins the persistence-event stream (every log
    // write, flush and fence); the image checksums pin the bytes the
    // log leaves on media mid-append, mid-commit and between
    // transactions.
    EXPECT_EQ(undoCrashImage(0).first, 2717u);
    const std::pair<std::uint64_t, std::uint32_t> golden[] = {
        {1, 0x04c0'a01cu},    {37, 0x89d3'210eu},   {200, 0x96f7'86aeu},
        {555, 0xb6d9'dfc6u},  {1000, 0x7a43'66fdu}, {1501, 0x70ff'd4a3u},
        {2717, 0x2561'b7eau},
    };
    for (const auto &[at, crc] : golden) {
        const auto [events, got] = undoCrashImage(at);
        EXPECT_EQ(events, at);
        EXPECT_EQ(got, crc) << "crash point " << at;
    }
}

// ---------------------------------------------------------------------
// Overflow-safe bounds
// ---------------------------------------------------------------------

TEST(BackingBounds, HostileOffsetWrapsAreFaultsNotCorruption)
{
    Backing b(4096);
    std::uint8_t buf[16] = {};
    // off + n wraps around 2^64 and would pass a naive `off + n <=
    // size` check.
    const Bytes evil = ~0ULL - 7;
    EXPECT_THROW(b.read(evil, buf, 16), Fault);
    EXPECT_THROW(b.write(evil, buf, 16), Fault);
    try {
        b.read(evil, buf, 16);
        FAIL();
    } catch (const Fault &f) {
        EXPECT_EQ(f.kind(), FaultKind::OffsetOutOfPool);
    }
}

TEST(BackingBounds, PastEndFaults)
{
    Backing b(128);
    std::uint8_t buf[16] = {};
    EXPECT_THROW(b.read(120, buf, 16), Fault);
    EXPECT_THROW(b.write(128, buf, 1), Fault);
    EXPECT_NO_THROW(b.read(112, buf, 16)); // exactly at the end
}

// ---------------------------------------------------------------------
// Persistence domain
// ---------------------------------------------------------------------

TEST(PersistenceDomain, DisabledWritesAreInstantlyDurable)
{
    Backing b(4096);
    poke(b, 0, 42);
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 42u);
}

TEST(PersistenceDomain, UnflushedWriteIsLostUnfencedFlushIsLost)
{
    Backing b(4096);
    poke(b, 0, 1);
    poke(b, 64, 2);
    b.enablePersistenceDomain(); // both become durable baseline

    poke(b, 0, 111);              // dirty, never flushed
    poke(b, 64, 222);
    b.flush(64, 8);               // staged, never fenced

    // The program sees the new values...
    EXPECT_EQ(read64(b, 0), 111u);
    EXPECT_EQ(read64(b, 64), 222u);
    // ...but a crash keeps neither.
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 1u);
    EXPECT_EQ(peek(image, 64), 2u);
}

TEST(PersistenceDomain, FlushFenceMakesLinesDurable)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    poke(b, 0, 7);
    poke(b, 128, 9);
    b.flush(0, 8);
    b.fence();

    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 7u);   // fenced: survives
    EXPECT_EQ(peek(image, 128), 0u); // dirty: lost
    EXPECT_EQ(b.pendingLines(), 1u); // only line 2 still pending
}

TEST(PersistenceDomain, RewriteAfterFlushNeedsAnotherFlush)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    poke(b, 0, 1);
    b.flush(0, 8);
    poke(b, 0, 2); // dirties the line again: the staged CLWB is stale
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(peek(image, 0), 0u);
    b.flush(0, 8);
    b.fence();
    EXPECT_EQ(peek(b.crashImage(CrashMode::DiscardUnfenced), 0), 2u);
}

TEST(PersistenceDomain, FlushCoversWholeLinesOfTheRange)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    // One 16-byte write straddling the line-0/line-1 boundary.
    std::uint8_t buf[16];
    std::memset(buf, 0xAB, sizeof(buf));
    b.write(56, buf, sizeof(buf));
    b.flush(56, 16);
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    EXPECT_EQ(image[56], 0xABu);
    EXPECT_EQ(image[71], 0xABu);
    EXPECT_EQ(b.pendingLines(), 0u);
}

TEST(PersistenceDomain, RetainRandomIsLineGranularAndDeterministic)
{
    Backing b(64 * 64);
    b.enablePersistenceDomain();
    // Dirty 64 full lines with a recognizable pattern.
    for (Bytes line = 0; line < 64; ++line) {
        std::uint8_t buf[64];
        std::memset(buf, 0x11 + static_cast<int>(line % 7), sizeof(buf));
        b.write(line * 64, buf, sizeof(buf));
    }

    const auto a = b.crashImage(CrashMode::RetainRandom, 12345);
    const auto c = b.crashImage(CrashMode::RetainRandom, 12345);
    EXPECT_EQ(a, c); // deterministic per seed

    const auto d = b.crashImage(CrashMode::RetainRandom, 54321);
    EXPECT_NE(a, d); // but seed-dependent

    // Every line is atomically old (all zero) or new (all pattern);
    // with 64 lines at p=1/2, both outcomes occur.
    std::size_t kept = 0;
    for (Bytes line = 0; line < 64; ++line) {
        const std::uint8_t first = a[line * 64];
        for (Bytes i = 0; i < 64; ++i)
            ASSERT_EQ(a[line * 64 + i], first) << "torn line " << line;
        if (first != 0)
            ++kept;
    }
    EXPECT_GT(kept, 0u);
    EXPECT_LT(kept, 64u);
}

TEST(PersistenceDomain, GrowExtendsDurableImage)
{
    Backing b(128);
    b.enablePersistenceDomain();
    b.grow(4096);
    poke(b, 4000, 5);
    b.flush(4000, 8);
    b.fence();
    const auto image = b.crashImage(CrashMode::DiscardUnfenced);
    ASSERT_EQ(image.size(), 4096u);
    EXPECT_EQ(peek(image, 4000), 5u);
}

TEST(PersistenceDomain, AssignResetsTheDomain)
{
    Backing b(128);
    b.enablePersistenceDomain();
    poke(b, 0, 9);
    b.assign(std::vector<std::uint8_t>(256, 0xFF));
    EXPECT_FALSE(b.persistenceDomainEnabled());
    EXPECT_EQ(b.size(), 256u);
}

// ---------------------------------------------------------------------
// CrashInjector
// ---------------------------------------------------------------------

TEST(CrashInjector, CountsWritesFlushesAndFences)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(0);
    inj.attach(b);
    poke(b, 0, 1);   // event 1
    b.flush(0, 8);   // event 2
    b.fence();       // event 3
    EXPECT_EQ(inj.events(), 3u);
    EXPECT_FALSE(inj.fired());
}

TEST(CrashInjector, CrashEventNeverTakesEffect)
{
    Backing b(4096);
    b.enablePersistenceDomain();
    CrashInjector inj;
    inj.arm(4);
    inj.attach(b);

    poke(b, 0, 1);
    b.flush(0, 8);
    b.fence(); // value 1 durable
    bool crashed = false;
    try {
        poke(b, 0, 2); // event 4: the write "never happened"
    } catch (const SimulatedCrash &c) {
        crashed = true;
        EXPECT_EQ(c.at(), 4u);
    }
    ASSERT_TRUE(crashed);
    ASSERT_TRUE(inj.fired());
    EXPECT_EQ(peek(inj.image(), 0), 1u);
    // The live backing never saw the aborted write either.
    EXPECT_EQ(read64(b, 0), 1u);
}

TEST(CrashInjector, DisarmsAfterFiringSoUnwindingCanWrite)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(1);
    inj.attach(b);
    EXPECT_THROW(poke(b, 0, 1), SimulatedCrash);
    // Post-crash writes (e.g. destructors rolling back) must not
    // crash again or perturb the captured image.
    EXPECT_NO_THROW(poke(b, 8, 2));
    EXPECT_EQ(inj.events(), 1u);
    EXPECT_EQ(peek(inj.image(), 8), 0u);
}

TEST(CrashInjector, FenceCrashLeavesStagedLinesVolatile)
{
    Backing b(4096);
    CrashInjector inj;
    inj.arm(3);
    inj.attach(b);
    poke(b, 0, 7); // event 1
    b.flush(0, 8); // event 2
    EXPECT_THROW(b.fence(), SimulatedCrash); // event 3: no SFENCE
    EXPECT_EQ(peek(inj.image(), 0), 0u);
}


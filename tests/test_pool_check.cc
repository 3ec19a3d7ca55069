/** @file checkPool() verdicts over hand-damaged pool images: proven
 * repairs (identity CRC, redundant header fields, free-list rebuild),
 * honest refusals (boundary tags, out-of-pool root, lost committed
 * undo entries), and the dry-run-never-writes contract. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/json.hh"
#include "common/logging.hh"
#include "mem/address_space.hh"
#include "nvm/pool_check.hh"
#include "nvm/pool_manager.hh"
#include "nvm/txn.hh"

using namespace upr;

namespace
{

/** Formatted 1 MiB pool with a few live allocations. */
std::vector<std::uint8_t>
freshImage()
{
    AddressSpace space;
    PoolManager mgr(space, Placement::Sequential, 1);
    const PoolId id = mgr.createPool("c", 1 << 20);
    mgr.pmalloc(id, 64);
    mgr.pmalloc(id, 200);
    mgr.pmalloc(id, 48);
    return mgr.pool(id).backing().raw().toVector();
}

Backing
toBacking(const std::vector<std::uint8_t> &image)
{
    Backing b;
    b.assign(image);
    return b;
}

/** Flip one byte at @p off. */
void
flip(std::vector<std::uint8_t> &image, Bytes off, std::uint8_t mask)
{
    image[off] ^= mask;
}

void
poke64(std::vector<std::uint8_t> &image, Bytes off, std::uint64_t v)
{
    std::memcpy(image.data() + off, &v, sizeof(v));
}

std::uint64_t
peek64(const std::vector<std::uint8_t> &image, Bytes off)
{
    std::uint64_t v;
    std::memcpy(&v, image.data() + off, sizeof(v));
    return v;
}

/**
 * Formatted pool whose first allocation holds real relative pointers
 * into the second — the interior witness the poolId repair anchors on.
 */
std::vector<std::uint8_t>
imageWithPointers()
{
    AddressSpace space;
    PoolManager mgr(space, Placement::Sequential, 1);
    const PoolId id = mgr.createPool("c", 1 << 20);
    const PoolOffset a = mgr.allocator(id).alloc(64);
    const PoolOffset t = mgr.allocator(id).alloc(200);
    Pool &p = mgr.pool(id);
    for (std::uint64_t i = 0; i < 8; ++i) {
        const std::uint64_t w = (std::uint64_t{1} << 63) |
                                (std::uint64_t{id} << 32) |
                                (t + 8 * i);
        p.backing().write(a + 8 * i, &w, sizeof(w));
    }
    return p.backing().raw().toVector();
}

/** Byte offsets of PoolHeader fields (fixed on-media layout). */
constexpr Bytes kMagicOff = 0;
constexpr Bytes kPoolIdOff = 12;
constexpr Bytes kSizeOff = 16;
constexpr Bytes kRootOff = 24;
constexpr Bytes kFreeHeadOff = 32;
constexpr Bytes kUsedBytesOff = 40;
constexpr Bytes kArenaStartOff = 48;
constexpr Bytes kIdentCrcOff = 72;

class QuietLogs : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        setLogSink(+[](LogLevel, const std::string &) {});
    }
    void TearDown() override { setLogSink(nullptr); }
};

using PoolCheck = QuietLogs;
using PoolCheckRepair = QuietLogs;

} // namespace

TEST_F(PoolCheck, CleanImageIsClean)
{
    Backing b = toBacking(freshImage());
    const CheckReport rep = checkPool(b, false);
    EXPECT_EQ(rep.status, CheckStatus::Clean);
    EXPECT_TRUE(rep.issues.empty());
}

TEST_F(PoolCheck, DryRunNeverModifiesTheImage)
{
    auto image = freshImage();
    flip(image, kIdentCrcOff, 0x10);     // repairable damage
    flip(image, kArenaStartOff, 0x40);   // unrepairable damage
    Backing b = toBacking(image);
    checkPool(b, false);
    EXPECT_EQ(b.raw().toVector(), image);
}

TEST_F(PoolCheckRepair, IdentityCrcReseals)
{
    auto image = freshImage();
    flip(image, kIdentCrcOff, 0x08);

    Backing dry = toBacking(image);
    EXPECT_EQ(checkPool(dry, false).status, CheckStatus::Repairable);

    Backing b = toBacking(image);
    const CheckReport rep = checkPool(b, true);
    EXPECT_EQ(rep.status, CheckStatus::Repaired);
    const CheckReport again = checkPool(b, true);
    EXPECT_EQ(again.status, CheckStatus::Clean) << "repair not stable";
}

TEST_F(PoolCheckRepair, DamagedPoolIdRestoresFromInteriorPointers)
{
    // poolId has no legal-value constraint a geometry check could
    // enforce — the redundancy is the pool's own stored relative
    // pointers, and the restore must revalidate the identity CRC.
    auto image = imageWithPointers();
    image[kPoolIdOff] = 0x30; // was 1
    Backing dry = toBacking(image);
    EXPECT_EQ(checkPool(dry, false).status, CheckStatus::Repairable);

    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Repaired);
    EXPECT_EQ(b.raw().toVector()[kPoolIdOff], 1);
    EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
}

TEST_F(PoolCheck, ResealRefusedWhenInteriorContradictsPoolId)
{
    // poolId AND the CRC field damaged at once: the restore candidate
    // cannot revalidate, and resealing would brand the pool with an
    // id its own pointers contradict — the checker must refuse.
    auto image = imageWithPointers();
    image[kPoolIdOff] = 7;
    flip(image, kIdentCrcOff, 0x08);
    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Corrupt);
}

TEST_F(PoolCheckRepair, ResealStillProvableWithInteriorPointers)
{
    // Only the CRC field damaged: the census agrees with the header,
    // so the reseal stays a proven repair.
    auto image = imageWithPointers();
    flip(image, kIdentCrcOff, 0x08);
    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Repaired);
    EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
}

TEST_F(PoolCheckRepair, KnownConstantsRestoreOneAtATime)
{
    // magic has exactly one legal value and size must equal the image
    // length: each restore is proven by the identity CRC revalidating
    // afterwards. One candidate field at a time — the CRC can prove a
    // single restore, not a joint guess (see the Corrupt case below).
    {
        auto image = freshImage();
        flip(image, kMagicOff + 2, 0xFF);
        Backing b = toBacking(image);
        EXPECT_EQ(checkPool(b, true).status, CheckStatus::Repaired);
        EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
    }
    {
        auto image = freshImage();
        poke64(image, kSizeOff, (1 << 20) + 4096);
        Backing b = toBacking(image);
        EXPECT_EQ(checkPool(b, true).status, CheckStatus::Repaired);
        const auto repaired = b.raw().toVector();
        EXPECT_EQ(peek64(repaired, kSizeOff), Bytes(1) << 20);
        EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
    }
}

TEST_F(PoolCheck, JointHeaderDamageIsBeyondProof)
{
    // Two identity fields damaged at once: no single-field candidate
    // makes the CRC revalidate, so the checker must refuse to guess.
    auto image = freshImage();
    flip(image, kMagicOff + 2, 0xFF);
    poke64(image, kSizeOff, (1 << 20) + 4096);
    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Corrupt);
}

TEST_F(PoolCheckRepair, FreeListAndUsedBytesRebuildFromTags)
{
    auto image = freshImage();
    poke64(image, kFreeHeadOff, 12345);     // garbage free-list head
    poke64(image, kUsedBytesOff, 1);        // wrong accounting

    Backing b = toBacking(image);
    const CheckReport rep = checkPool(b, true);
    EXPECT_EQ(rep.status, CheckStatus::Repaired);
    EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
}

TEST_F(PoolCheck, GeometryDamageIsCorrupt)
{
    // arenaStart has no redundant copy: repairing it would be a
    // guess, and a wrong guess serves garbage as an arena.
    auto image = freshImage();
    flip(image, kArenaStartOff, 0x20);
    Backing b = toBacking(image);
    const CheckReport rep = checkPool(b, true);
    EXPECT_EQ(rep.status, CheckStatus::Corrupt);
    // Corrupt images are left exactly as found (forensics).
    EXPECT_EQ(b.raw().toVector(), image);
}

TEST_F(PoolCheck, TornBoundaryTagIsCorrupt)
{
    auto image = freshImage();
    const Bytes arena = peek64(image, kArenaStartOff);
    // Zero the first block's boundary tag (at arena + 8).
    poke64(image, arena + 8, 0);
    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Corrupt);
}

TEST_F(PoolCheck, OutOfPoolRootIsCorrupt)
{
    auto image = freshImage();
    poke64(image, kRootOff, (Bytes(1) << 20) + 64);
    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Corrupt);
}

TEST_F(PoolCheckRepair, PendingUndoLogReplays)
{
    // A crash image with an intact pending log is Repairable: the
    // proven fix is to finish recovery (replay + truncate).
    std::vector<std::uint8_t> image;
    {
        AddressSpace space;
        PoolManager mgr(space, Placement::Sequential, 1);
        const PoolId id = mgr.createPool("c", 1 << 20);
        Pool &p = mgr.pool(id);
        const PoolOffset a =
            static_cast<PoolOffset>(p.header().arenaStart) + 64;
        Txn txn(p);
        txn.recordWrite(a, 8);
        image = p.backing().raw().toVector();
        txn.commit();
    }

    Backing dry = toBacking(image);
    EXPECT_EQ(checkPool(dry, false).status, CheckStatus::Repairable);

    Backing b = toBacking(image);
    EXPECT_EQ(checkPool(b, true).status, CheckStatus::Repaired);
    EXPECT_EQ(checkPool(b, false).status, CheckStatus::Clean);
}

TEST_F(PoolCheck, DamagedLogControlIsCorrupt)
{
    auto image = freshImage();
    const Bytes logStart = peek64(image, 56);
    flip(image, logStart + 12, 0x04); // control CRC field
    Backing b = toBacking(image);
    const CheckReport rep = checkPool(b, true);
    EXPECT_EQ(rep.status, CheckStatus::Corrupt);
    EXPECT_TRUE(rep.recovery.controlDamaged);
}

TEST_F(PoolCheck, MidLogDamageWithLaterValidEntriesIsCorrupt)
{
    // Damage the FIRST of three logged entries: the two valid entries
    // after it prove media damage (a pure crash only tears the tail),
    // and their data writes can no longer be rolled back.
    std::vector<std::uint8_t> image;
    Bytes logStart = 0;
    {
        AddressSpace space;
        PoolManager mgr(space, Placement::Sequential, 1);
        const PoolId id = mgr.createPool("c", 1 << 20);
        Pool &p = mgr.pool(id);
        const PoolOffset a =
            static_cast<PoolOffset>(p.header().arenaStart) + 64;
        logStart = p.header().logStart;
        Txn txn(p);
        txn.recordWrite(a, 8);
        txn.recordWrite(a + 16, 8);
        txn.recordWrite(a + 32, 8);
        image = p.backing().raw().toVector();
        txn.commit();
    }
    flip(image, logStart + 16 + 16 + 2, 0x80); // entry 0 payload

    Backing b = toBacking(image);
    const CheckReport rep = checkPool(b, true);
    EXPECT_EQ(rep.status, CheckStatus::Corrupt);
    EXPECT_TRUE(rep.recovery.lostCommittedEntries);
}

TEST(PoolCheckJson, IssueTextIsEscaped)
{
    const std::string what = "tag \"7\" at C:\\pool\nnext\x01";
    CheckReport rep;
    rep.status = CheckStatus::Corrupt;
    rep.issues.push_back(CheckIssue{"arena", what, false, false});
    const std::string text = rep.toJson();

    // Every raw control byte left is a layout newline: the one inside
    // the issue text is written as an escape.
    for (const char c : text)
        EXPECT_TRUE(static_cast<unsigned char>(c) >= 0x20 || c == '\n');
    EXPECT_NE(text.find("\"what\": \"tag \\\"7\\\" at C:\\\\pool"
                        "\\nnext\\u0001\""),
              std::string::npos)
        << text;
    const JsonValue doc = parseJson(text);
    EXPECT_EQ(doc.find("issues")->items().at(0).find("what")->asString(),
              what);
}

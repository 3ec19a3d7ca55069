#include "nvm/pool_check.hh"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/fault.hh"
#include "common/json.hh"
#include "faultinject/fault_stats.hh"
#include "nvm/engine.hh"
#include "nvm/pool.hh"
#include "nvm/pool_allocator.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

/**
 * Mirror of the Pool adopt constructor's geometry checks, as a
 * predicate: "" when the identity fields describe a usable layout.
 */
std::string
geometryProblem(const PoolHeader &h, Bytes image_size)
{
    if (h.magic != PoolHeader::kMagic)
        return "bad magic";
    if (h.version != PoolHeader::kVersion)
        return "unsupported version " + std::to_string(h.version);
    if (h.size != image_size)
        return "size field disagrees with image length";
    if (h.size > Pool::kMaxSize || h.poolId == 0)
        return "impossible size or pool id";
    if (h.logStart < sizeof(PoolHeader) || h.logSize < 64 ||
        h.logStart + h.logSize < h.logStart ||
        h.logStart + h.logSize > h.arenaStart ||
        h.arenaStart % 16 != 0 || h.arenaStart >= h.size)
        return "corrupt log/arena geometry";
    if (h.engine > static_cast<std::uint32_t>(EngineKind::Redo))
        return "unknown transaction engine " + std::to_string(h.engine);
    return "";
}

void
addIssue(CheckReport &rep, const char *component, std::string what,
         bool repairable, bool repaired)
{
    rep.issues.push_back(
        CheckIssue{component, std::move(what), repairable, repaired});
}

/**
 * Census of pool IDs embedded in the image's own relative pointers.
 * The header's poolId field has no legal-value constraint a geometry
 * check could enforce, but the pool *contents* carry independent
 * copies: every stored relative pointer (bit 63 set) embeds the
 * 31-bit id of the pool it was stored into (bits 62..32 — the fixed
 * on-media representation the whole design is built on). Collects the
 * distinct ids found in aligned words of allocated payloads, capped
 * at a handful. Defensive walk: the arena may be mid-transaction, so
 * any inconsistent boundary tag ends the scan with whatever was
 * gathered so far.
 */
std::vector<std::uint32_t>
interiorPoolIdCensus(const Backing &img, const PoolHeader &h)
{
    constexpr std::size_t kMaxDistinct = 8;
    std::vector<std::uint32_t> ids;
    Bytes b = h.arenaStart + 8;
    while (b + PoolAllocator::kMinBlock <= h.size) {
        std::uint64_t tag;
        img.read(b, &tag, sizeof(tag));
        const Bytes size = tag & ~std::uint64_t{1};
        if (size < PoolAllocator::kMinBlock || size % 8 != 0 ||
            b + size > h.size)
            break;
        if ((tag & 1) != 0) {
            const Bytes payload = b + PoolAllocator::kHeaderBytes;
            const Bytes end = b + size - PoolAllocator::kFooterBytes;
            for (Bytes w = payload; w + 8 <= end; w += 8) {
                std::uint64_t word;
                img.read(w, &word, sizeof(word));
                if ((word >> 63) == 0)
                    continue;
                const auto id = static_cast<std::uint32_t>(
                    (word >> 32) & 0x7FFF'FFFFu);
                if (id == 0 ||
                    std::find(ids.begin(), ids.end(), id) != ids.end())
                    continue;
                if (ids.size() == kMaxDistinct)
                    return ids;
                ids.push_back(id);
            }
        }
        b += size;
    }
    return ids;
}

/** rootOff must name a byte inside some allocated block's payload. */
bool
rootInsideAllocatedBlock(const Pool &pool)
{
    const PoolHeader h = pool.header();
    if (h.rootOff == 0)
        return true;
    const Bytes first = h.arenaStart + 8;
    Bytes b = first;
    while (b + PoolAllocator::kMinBlock <= h.size) {
        std::uint64_t tag;
        pool.backing().read(b, &tag, sizeof(tag));
        const Bytes size = tag & ~std::uint64_t{1};
        const bool allocated = (tag & 1) != 0;
        const Bytes payload = b + PoolAllocator::kHeaderBytes;
        const Bytes payload_end = b + size - PoolAllocator::kFooterBytes;
        if (allocated && h.rootOff >= payload &&
            h.rootOff < payload_end)
            return true;
        b += size;
    }
    return false;
}

} // namespace

std::string
CheckReport::toJson() const
{
    JsonWriter json;
    json.beginObject();
    json.kv("status", checkStatusName(status));
    json.key("issues").beginArray();
    for (const CheckIssue &i : issues) {
        json.beginObject(JsonWriter::Inline);
        json.kv("component", i.component);
        json.kv("what", i.what);
        json.kv("repairable", i.repairable);
        json.kv("repaired", i.repaired);
        json.end();
    }
    json.end();
    json.kv("engine", engineKindName(engine));
    json.key("log").beginObject(JsonWriter::Inline);
    json.kv("active", recovery.logActive);
    json.kv("entries", recovery.entriesReplayed);
    json.kv("discardedBytes", recovery.bytesDiscarded);
    json.kv("lostCommitted", recovery.lostCommittedEntries);
    json.kv("controlDamaged", recovery.controlDamaged);
    json.kv("generation", std::uint64_t{recovery.generation});
    json.end();
    json.end();
    return json.str() + '\n';
}

CheckReport
checkPool(Backing &image, bool repair)
{
    CheckReport rep;

    // Everything below operates on a scratch copy: dry runs stay
    // side-effect free, and repair mode only publishes the scratch
    // when the verdict allows it.
    Backing scratch(image);

    // ---- Phase 1: header identity -------------------------------
    if (scratch.size() < sizeof(PoolHeader)) {
        addIssue(rep, "header", "image smaller than a pool header",
                 false, false);
        rep.status = CheckStatus::Corrupt;
        return rep;
    }
    PoolHeader h;
    scratch.read(0, &h, sizeof(h));

    if (h.identCrc != poolIdentCrc(h)) {
        // The identity CRC localizes the damage: restore a candidate
        // field from its known-good value and accept the repair only
        // if the stored CRC revalidates — redundancy *proves* the
        // fix, we never guess.
        PoolHeader fixed = h;
        std::string what;
        bool proven = false;
        if (h.magic != PoolHeader::kMagic) {
            fixed = h;
            fixed.magic = PoolHeader::kMagic;
            if (poolIdentCrc(fixed) == h.identCrc) {
                what = "magic damaged (restore proven by identity CRC)";
                proven = true;
            }
        }
        if (!proven && h.version != PoolHeader::kVersion) {
            fixed = h;
            fixed.version = PoolHeader::kVersion;
            if (poolIdentCrc(fixed) == h.identCrc) {
                what = "version damaged (restore proven by identity "
                       "CRC)";
                proven = true;
            }
        }
        if (!proven && h.size != scratch.size()) {
            fixed = h;
            fixed.size = scratch.size();
            if (poolIdentCrc(fixed) == h.identCrc) {
                what = "size field damaged (restore proven by identity "
                       "CRC)";
                proven = true;
            }
        }
        if (!proven) {
            // The engine field has only two legal values: try the
            // other one (and, for a bit-flipped field, both).
            for (std::uint32_t cand = 0;
                 cand <= static_cast<std::uint32_t>(EngineKind::Redo);
                 ++cand) {
                if (cand == h.engine)
                    continue;
                fixed = h;
                fixed.engine = cand;
                if (poolIdentCrc(fixed) == h.identCrc) {
                    what = std::string("engine field damaged (restore "
                                       "to ") +
                           engineKindName(
                               static_cast<EngineKind>(cand)) +
                           " proven by identity CRC)";
                    proven = true;
                    break;
                }
            }
        }
        // The remaining suspects are poolId and the CRC field itself,
        // and geometry cannot arbitrate between them: poolId has no
        // legal-value constraint. The pool's own contents break the
        // tie — stored relative pointers embed the id (the census
        // below), and a restore from that witness must still be
        // proven by the stored CRC revalidating.
        const bool walkable = h.size == scratch.size() &&
                              h.arenaStart >= sizeof(PoolHeader) &&
                              h.arenaStart % 16 == 0 &&
                              h.arenaStart < h.size;
        const std::vector<std::uint32_t> census =
            !proven && walkable ? interiorPoolIdCensus(scratch, h)
                                : std::vector<std::uint32_t>{};
        if (!proven) {
            for (std::uint32_t cand : census) {
                if (cand == h.poolId)
                    continue;
                fixed = h;
                fixed.poolId = cand;
                if (poolIdentCrc(fixed) == h.identCrc) {
                    what = "pool id damaged (restore to " +
                           std::to_string(cand) +
                           " proven by identity CRC + interior "
                           "relative pointers)";
                    proven = true;
                    break;
                }
            }
        }
        if (!proven) {
            // Maybe the CRC itself took the hit: reseal only when
            // every identity field independently validates — and the
            // interior census does not contradict poolId, which the
            // geometry checks cannot vouch for. Resealing over a
            // damaged poolId would serve a pool whose own pointers
            // name a different pool.
            fixed = h;
            const bool contradicted =
                std::any_of(census.begin(), census.end(),
                            [&h](std::uint32_t id) {
                                return id != h.poolId;
                            });
            if (geometryProblem(h, scratch.size()).empty() &&
                !contradicted) {
                fixed.identCrc = poolIdentCrc(h);
                what = "identity CRC damaged (reseal: all identity "
                       "fields validate)";
                proven = true;
            }
        }
        if (!proven) {
            addIssue(rep, "header",
                     "identity fields damaged beyond what the CRC can "
                     "prove a repair for",
                     false, false);
            rep.status = CheckStatus::Corrupt;
            return rep;
        }
        scratch.write(0, &fixed, sizeof(fixed));
        h = fixed;
        addIssue(rep, "header", what, true, repair);
    }

    const std::string geo = geometryProblem(h, scratch.size());
    if (!geo.empty()) {
        // CRC-consistent garbage: the whole header block was replaced
        // wholesale. Nothing to anchor a repair to.
        addIssue(rep, "header", geo, false, false);
        rep.status = CheckStatus::Corrupt;
        return rep;
    }

    // Mutable header fields. rootOff is irreplaceable (it *is* the
    // user's data); freeHead/usedBytes are recomputable from the
    // boundary tags, so out-of-range values are pre-clamped to let
    // the Pool constructor pass and the rebuild below fix them.
    if (h.rootOff >= h.size) {
        addIssue(rep, "root", "root offset outside the pool", false,
                 false);
        rep.status = CheckStatus::Corrupt;
        return rep;
    }
    bool arena_meta_damaged = false;
    if (h.freeHead >= h.size || h.usedBytes > h.size) {
        arena_meta_damaged = true;
        h.freeHead = 0;
        h.usedBytes = 0;
        scratch.write(0, &h, sizeof(h));
    }

    // ---- Phase 2: adopt the vetted image ------------------------
    // Every adopt-constructor check is mirrored above, so this should
    // never throw; a surprise is reported, not propagated.
    std::optional<Pool> adopted;
    try {
        adopted.emplace("check", std::move(scratch));
    } catch (const Fault &f) {
        addIssue(rep, "header", f.what(), false, false);
        rep.status = CheckStatus::Corrupt;
        return rep;
    }
    Pool &pool = *adopted;

    // ---- Phase 3: transaction log (engine-dispatched) -----------
    const bool redo = pool.engineKind() == EngineKind::Redo;
    const char *log_comp = redo ? "redo-log" : "undo-log";
    rep.engine = pool.engineKind();
    rep.recovery = TxnEngine::analyze(pool);
    if (rep.recovery.controlDamaged) {
        addIssue(rep, log_comp,
                 "log control block fails its checksum: whether a "
                 "transaction was pending is unknowable",
                 false, false);
    } else if (rep.recovery.lostCommittedEntries) {
        addIssue(rep, log_comp,
                 redo ? "committed journal entry damaged before it "
                        "could be applied: the committed data is "
                        "unrecoverable"
                      : "mid-log entry damaged with committed entries "
                        "after it: their data writes cannot be rolled "
                        "back",
                 false, false);
    } else if (rep.recovery.logActive) {
        addIssue(rep, log_comp,
                 redo ? "committed journal pending forward replay"
                      : "pending transaction log (replay)",
                 true, repair);
    }
    // Scrub on the scratch pool either way: the arena checks below
    // need the post-recovery state (a mid-transaction arena is
    // legitimately torn until the undo pre-images are restored — or,
    // for redo, until the committed journal finishes applying). With
    // lostCommittedEntries the undo rollback is still the best
    // available state, while the redo engine refuses to touch the
    // image (forensics) — either way the verdict is already Corrupt.
    // Runs even when no log is active: with logging elision a pure
    // crash can leave user bytes in a still-free block's link words
    // under an idle redo journal, and recovery (not repair) is what
    // canonicalizes them — see Txn::canonicalizeHeap(). The engines
    // guard the damaged cases themselves.
    TxnEngine::recoverEx(pool);

    // ---- Phase 4: allocator arena -------------------------------
    PoolAllocator alloc(pool);
    ArenaReport arena = alloc.inspectArena();
    if (!arena.tagsValid) {
        addIssue(rep, "arena",
                 "boundary tags damaged (" + arena.what +
                 "): block structure unrecoverable",
                 false, false);
    } else if (arena_meta_damaged || !arena.freeListValid ||
               !arena.usedBytesMatch) {
        std::string what = arena_meta_damaged
                               ? "free-list head / usage accounting "
                                 "out of range"
                               : arena.what;
        alloc.rebuildFreeList();
        const ArenaReport after = alloc.inspectArena();
        if (after.tagsValid && after.freeListValid &&
            after.usedBytesMatch) {
            addIssue(rep, "arena",
                     what + " (free list rebuilt from boundary tags)",
                     true, repair);
        } else {
            addIssue(rep, "arena",
                     "free-list rebuild failed to converge: " +
                     after.what,
                     false, false);
        }
    }

    // ---- Phase 5: root containment ------------------------------
    if (arena.tagsValid && !rootInsideAllocatedBlock(pool)) {
        addIssue(rep, "root",
                 "root offset does not fall inside any allocated "
                 "block",
                 false, false);
    }

    // ---- Verdict ------------------------------------------------
    bool any_corrupt = false;
    for (const CheckIssue &i : rep.issues)
        any_corrupt = any_corrupt || !i.repairable;
    if (any_corrupt)
        rep.status = CheckStatus::Corrupt;
    else if (rep.issues.empty())
        rep.status = CheckStatus::Clean;
    else
        rep.status = repair ? CheckStatus::Repaired
                            : CheckStatus::Repairable;

    if (repair && rep.status == CheckStatus::Repaired) {
        image.assign(pool.backing().raw());
        FaultStats::instance().repaired.add(1);
        if (rep.recovery.logActive)
            FaultStats::instance().scrubbed.add(1);
        obs::traceEvent(obs::EventKind::PoolRepair, pool.id(),
                        rep.issues.size());
    }
    return rep;
}

} // namespace upr

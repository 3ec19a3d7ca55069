/**
 * @file
 * The on-media wire format of the pool log region, shared by both
 * transaction engines (undo in txn.cc, redo in redo_log.cc).
 *
 * Both engines speak the same 16-byte control block and 16-byte entry
 * header with identical checksum formulas; only the *meaning* differs
 * per engine (pre-images rolled back vs new-values replayed forward,
 * `active` as open-transaction flag vs committed-journal flag). Pool
 * formatting, the fault-injection target parser, and the check/repair
 * log walk therefore work on either engine's log region without
 * knowing which engine wrote it.
 *
 * Internal detail header: everything here lives in upr::logfmt and is
 * not part of the public transaction API.
 */

#ifndef UPR_NVM_LOG_FORMAT_HH
#define UPR_NVM_LOG_FORMAT_HH

#include <cstddef>
#include <cstdint>
#include <cstring>

#include "common/crc32.hh"
#include "nvm/pool.hh"

namespace upr::logfmt
{

/**
 * Control block at the start of the log area. Kept *outside* the pool
 * header on purpose: header writes are frequent (allocator metadata)
 * and may be in flight while the log appends its own state; a shared
 * struct would let the in-flight header write clobber the log's
 * bookkeeping.
 */
struct LogControl
{
    std::uint32_t tail;        //!< next free byte within the entry area
    /**
     * Transaction incarnation counter; bumped at every undo begin /
     * redo commit, never reset. Every entry checksum is seeded with
     * the generation it was written under, which is what makes stale
     * log bytes detectable: a reordered write-back can pair a fresh
     * control block with an entry slot whose media content still
     * holds a *complete, checksummed entry of an earlier
     * transaction*. Without the generation seed that stale entry
     * verifies and gets replayed from the wrong transaction.
     */
    std::uint32_t generation;
    /**
     * Engine-specific state word. Undo: non-zero while a transaction
     * is open (pre-images pending rollback). Redo: non-zero once a
     * journal is committed and pending forward replay.
     */
    std::uint32_t active;
    /**
     * CRC32 over tail+generation+active. The control block is written
     * atomically (16 bytes, one cache line), so a pure crash always
     * leaves a consistent block — a CRC mismatch is *media* damage.
     * A freshly formatted pool gets a sealed empty control block
     * (Txn::formatLog), so every legitimate image carries a valid
     * checksum from birth.
     */
    std::uint32_t crc;
};
static_assert(sizeof(LogControl) == 16);

static_assert(offsetof(LogControl, tail) == 0 &&
              offsetof(LogControl, generation) == 4 &&
              offsetof(LogControl, active) == 8 &&
              offsetof(LogControl, crc) == 12);

/**
 * The checksum a control block must carry: one CRC-32 over its first
 * 12 bytes, tail, generation and active in that order.
 */
inline std::uint32_t
controlCrc(const LogControl &c)
{
    return crc32(&c, offsetof(LogControl, crc));
}

/** On-log entry header. */
struct LogEntry
{
    std::uint32_t length;
    /** crc32 over generation, poolOffset, length, payload (entryCrc). */
    std::uint32_t crc;
    std::uint64_t poolOffset;
};
static_assert(sizeof(LogEntry) == 16);

/**
 * The checksum an entry with this header and payload must carry: one
 * CRC-32 over the 16 bytes generation‖poolOffset‖length (host byte
 * order, no padding), continued over the payload.
 */
inline std::uint32_t
entryCrc(const LogEntry &e, std::uint32_t generation,
         const std::uint8_t *payload)
{
    std::uint8_t seed[16];
    std::memcpy(seed, &generation, 4);
    std::memcpy(seed + 4, &e.poolOffset, 8);
    std::memcpy(seed + 12, &e.length, 4);
    return crc32Update(crc32(seed, sizeof(seed)), payload, e.length);
}

/** Read the control block of @p pool's log region. */
inline LogControl
readControl(const Pool &pool)
{
    LogControl c;
    pool.backing().read(pool.header().logStart, &c, sizeof(c));
    return c;
}

/**
 * Seal @p c with its checksum, write it at @p at (the log start of
 * the pool @p b backs), and make it durable.
 */
inline void
writeControl(Backing &b, Bytes at, const LogControl &c)
{
    LogControl sealed = c;
    sealed.crc = controlCrc(sealed);
    b.write(at, &sealed, sizeof(sealed));
    b.flush(at, sizeof(sealed));
    b.fence();
}

/** Seal @p c with its checksum, write it, and make it durable. */
inline void
writeControl(Pool &pool, const LogControl &c)
{
    writeControl(pool.backing(), pool.header().logStart, c);
}

/** First byte of the entry area. */
inline Bytes
entriesStart(const Pool &pool)
{
    return pool.header().logStart + sizeof(LogControl);
}

/** Capacity of the entry area. */
inline Bytes
entriesCapacity(const Pool &pool)
{
    return pool.header().logSize - sizeof(LogControl);
}

} // namespace upr::logfmt

#endif // UPR_NVM_LOG_FORMAT_HH

#include "nvm/txn.hh"

#include <algorithm>
#include <vector>

#include "common/crc32.hh"
#include "common/fault.hh"
#include "common/logging.hh"
#include "nvm/log_format.hh"
#include "nvm/pool_allocator.hh"
#include "nvm/txn_stats.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

// The wire format (control block, entry header, checksum formulas)
// is shared with the redo engine; see nvm/log_format.hh.
using logfmt::LogControl;
using logfmt::LogEntry;
using logfmt::controlCrc;
using logfmt::entriesCapacity;
using logfmt::entriesStart;
using logfmt::entryCrc;
using logfmt::readControl;

/**
 * Write the control block at @p logStart and make it durable (undo
 * accounting).
 */
void
putControl(Backing &b, Bytes logStart, const LogControl &c,
           TxnStats &stats)
{
    logfmt::writeControl(b, logStart, c);
    stats.undoFlushes.add(1);
    stats.undoFences.add(1);
}

/** putControl() for a pool whose log start is not cached. */
void
putControl(Pool &pool, const LogControl &c)
{
    putControl(pool.backing(), pool.header().logStart, c,
               TxnStats::current());
}

/** This pool's log region speaks undo, or the caller is lost. */
void
requireUndo(const Pool &pool)
{
    if (pool.engineKind() != EngineKind::Undo) {
        throw Fault(FaultKind::EngineMismatch,
                    "pool '" + pool.name() + "' uses the " +
                    engineKindName(pool.engineKind()) +
                    " engine; its log region cannot be driven by the "
                    "undo path");
    }
}

/**
 * Walk the log and return the byte offsets (within the entry area) of
 * the entries that verify: well-formed lengths, in-pool target range,
 * matching checksum. Stops at the first invalid entry — by the
 * write-ahead discipline only the *tail* entry can legitimately be
 * torn, and nothing after a bad entry can be trusted anyway (entry
 * boundaries are chained through the length fields).
 */
std::vector<Bytes>
validEntries(const Pool &pool, const LogControl &c,
             Bytes *end_cursor = nullptr)
{
    std::vector<Bytes> entries;
    Bytes tail = c.tail;
    if (tail > entriesCapacity(pool)) {
        upr_warn("pool '%s': undo-log tail %llu exceeds capacity %llu; "
                 "clamping", pool.name().c_str(),
                 (unsigned long long)tail,
                 (unsigned long long)entriesCapacity(pool));
        tail = entriesCapacity(pool);
    }

    Bytes cursor = 0;
    while (cursor + sizeof(LogEntry) <= tail) {
        const Bytes at = entriesStart(pool) + cursor;
        LogEntry e;
        pool.backing().read(at, &e, sizeof(e));
        if (e.length == 0 ||
            cursor + sizeof(LogEntry) + e.length > tail) {
            upr_warn("pool '%s': torn undo entry at log offset %llu "
                     "(length %u); discarding it and the log tail",
                     pool.name().c_str(), (unsigned long long)cursor,
                     e.length);
            break;
        }
        if (e.poolOffset > pool.size() ||
            e.length > pool.size() - e.poolOffset) {
            upr_warn("pool '%s': undo entry at log offset %llu names "
                     "out-of-pool range [%llu,+%u); discarding it and "
                     "the log tail", pool.name().c_str(),
                     (unsigned long long)cursor,
                     (unsigned long long)e.poolOffset, e.length);
            break;
        }
        std::vector<std::uint8_t> payload(e.length);
        pool.backing().read(at + sizeof(e), payload.data(), e.length);
        if (entryCrc(e, c.generation, payload.data()) != e.crc) {
            upr_warn("pool '%s': undo entry at log offset %llu fails "
                     "its checksum; discarding it and the log tail",
                     pool.name().c_str(), (unsigned long long)cursor);
            break;
        }
        entries.push_back(cursor);
        cursor += sizeof(LogEntry) + e.length;
    }
    if (cursor != c.tail) {
        upr_warn("pool '%s': undo log replays %zu entries, ignoring "
                 "%llu trailing bytes", pool.name().c_str(),
                 entries.size(),
                 (unsigned long long)(c.tail - cursor));
    }
    if (end_cursor)
        *end_cursor = cursor;
    return entries;
}

/**
 * Resync scan of the discarded log region (end_cursor, tail): probe
 * every byte offset for a CRC-valid, in-pool entry. The write-ahead
 * discipline fences each entry before the next is appended, so a pure
 * crash can only tear the *final* entry — a valid entry after a bad
 * one means the bad entry was damaged on media, and the data writes
 * the later entries protect were executed but cannot be rolled back.
 */
bool
discardedRegionHasValidEntry(const Pool &pool, std::uint32_t generation,
                             Bytes from, Bytes to)
{
    // from is the first invalid entry itself: start one byte past it.
    for (Bytes o = from + 1; o + sizeof(LogEntry) <= to; ++o) {
        const Bytes at = entriesStart(pool) + o;
        LogEntry e;
        pool.backing().read(at, &e, sizeof(e));
        if (e.length == 0 || o + sizeof(LogEntry) + e.length > to)
            continue;
        if (e.poolOffset > pool.size() ||
            e.length > pool.size() - e.poolOffset)
            continue;
        std::vector<std::uint8_t> payload(e.length);
        pool.backing().read(at + sizeof(e), payload.data(), e.length);
        if (entryCrc(e, generation, payload.data()) == e.crc)
            return true;
    }
    return false;
}

/**
 * Restore the pre-images of @p entries back-to-front (so overlapping
 * writes restore the oldest pre-image last) and truncate the log.
 */
void
applyEntries(Pool &pool, const std::vector<Bytes> &entries)
{
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
        LogEntry e;
        const Bytes at = entriesStart(pool) + *it;
        pool.backing().read(at, &e, sizeof(e));
        std::vector<std::uint8_t> pre(e.length);
        pool.backing().read(at + sizeof(e), pre.data(), e.length);
        pool.backing().write(e.poolOffset, pre.data(), e.length);
        pool.backing().flush(e.poolOffset, e.length);
        TxnStats::current().undoFlushes.add(1);
    }
    pool.backing().fence();
    TxnStats::current().undoFences.add(1);

    LogControl done = readControl(pool);
    obs::traceEvent(obs::EventKind::UndoTruncate, pool.id(),
                    done.tail);
    done.active = 0;
    done.tail = 0;
    putControl(pool, done);
    obs::traceEvent(obs::EventKind::RecoveryApplied, entries.size(),
                    1);
}

/** Classify the log; shared by analyze() and recoverEx(). */
Txn::RecoveryReport
classifyLog(const Pool &pool, const LogControl &c,
            std::vector<Bytes> *entries_out)
{
    Txn::RecoveryReport r;
    if (c.crc != controlCrc(c)) {
        // A pure crash writes the control block atomically (one cache
        // line), so a checksum mismatch is media damage — and neither
        // the active flag nor the tail can be trusted. A flipped
        // active bit or shrunk tail would otherwise skip rollback of
        // logged writes and leave torn data in place silently.
        r.controlDamaged = true;
        return r;
    }
    r.generation = c.generation;
    r.logActive = c.active != 0;
    if (!r.logActive)
        return r;
    Bytes end = 0;
    std::vector<Bytes> entries = validEntries(pool, c, &end);
    const Bytes tail = std::min<Bytes>(c.tail, entriesCapacity(pool));
    r.entriesReplayed = entries.size();
    r.bytesDiscarded = tail > end ? tail - end : 0;
    if (r.bytesDiscarded > 0)
        r.lostCommittedEntries =
            discardedRegionHasValidEntry(pool, c.generation, end, tail);
    if (entries_out)
        *entries_out = std::move(entries);
    return r;
}

} // namespace

void
Txn::begin(Pool &pool)
{
    upr_assert_msg(closed_, "begin on an open transaction");
    requireUndo(pool);
    const PoolHeader h = pool.header();
    LogControl c{};
    pool.backing().read(h.logStart, &c, sizeof(c));
    if (c.active) {
        throw Fault(FaultKind::BadUsage,
                    "pool '" + pool.name() +
                    "' already has an active transaction");
    }
    c.active = 1;
    c.tail = 0;
    // New incarnation: entries left on media by earlier transactions
    // no longer checksum under this generation, so recovery cannot
    // mistake them for ours.
    c.generation += 1;
    putControl(pool.backing(), h.logStart, c, TxnStats::current());

    pool_ = &pool;
    closed_ = false;
    poolId_ = h.poolId;
    poolSize_ = h.size;
    logStart_ = h.logStart;
    logCapacity_ = h.logSize - sizeof(LogControl);
    tail_ = 0;
    generation_ = c.generation;
    dirty_.clear();
    obs::traceEvent(obs::EventKind::TxnBegin, poolId_);
}

Txn::~Txn()
{
    if (!closed_)
        abort();
}

void
Txn::recordWrite(PoolOffset off, Bytes len)
{
    upr_assert_msg(!closed_, "recordWrite on a closed transaction");
    upr_assert_msg(len <= poolSize_ && off <= poolSize_ - len,
                   "logged range out of pool");
    if (len == 0)
        return;

    const Bytes need = sizeof(LogEntry) + len;
    if (tail_ + need > logCapacity_) {
        throw Fault(FaultKind::PoolFull,
                    "undo log of pool '" + pool_->name() + "' full");
    }

    Backing &b = pool_->backing();
    if (preImage_.size() < len)
        preImage_.resize(len);
    b.read(off, preImage_.data(), len);

    LogEntry e{};
    e.length = static_cast<std::uint32_t>(len);
    e.poolOffset = off;
    e.crc = entryCrc(e, generation_, preImage_.data());

    // Write-ahead: the entry (and the tail bump that publishes it)
    // must be durable before the caller's data write happens, or a
    // crash could leave new data with no pre-image to undo.
    const Bytes at = logStart_ + sizeof(LogControl) + tail_;
    b.write(at, &e, sizeof(e));
    b.write(at + sizeof(e), preImage_.data(), len);
    b.flush(at, need);
    TxnStats &stats = TxnStats::current();
    stats.undoFlushes.add(1);

    const LogControl c{tail_ + static_cast<std::uint32_t>(need),
                       generation_, 1, 0};
    putControl(b, logStart_, c, stats); // + fence: entry and control
    tail_ = c.tail;

    dirty_.emplace_back(off, len);
}

void
Txn::recordElidedWrite(PoolOffset off, Bytes len)
{
    upr_assert_msg(!closed_, "recordElidedWrite on a closed transaction");
    upr_assert_msg(len <= poolSize_ && off <= poolSize_ - len,
                   "elided range out of pool");
    if (len == 0)
        return;
    TxnStats::current().undoElidedWrites.add(1);
    // No pre-image, no log append, no fence. Commit must still flush
    // the new bytes, so remember the range once.
    for (const auto &[doff, dlen] : dirty_) {
        if (doff == off && dlen == len)
            return;
    }
    dirty_.emplace_back(off, len);
}

void
Txn::commit()
{
    upr_assert_msg(!closed_, "double commit");
    // Committed data must be durable before the log that could undo
    // it disappears.
    Backing &b = pool_->backing();
    TxnStats &stats = TxnStats::current();
    for (const auto &[off, len] : dirty_) {
        b.flush(off, len);
        stats.undoFlushes.add(1);
    }
    b.fence();
    stats.undoFences.add(1);

    obs::traceEvent(obs::EventKind::UndoTruncate, poolId_, tail_);
    putControl(b, logStart_, LogControl{0, generation_, 0, 0}, stats);
    stats.undoCommits.add(1);
    obs::traceEvent(obs::EventKind::TxnCommit, poolId_, dirty_.size());
    closed_ = true;
    dirty_.clear();
}

void
Txn::abort()
{
    upr_assert_msg(!closed_, "abort after close");
    rollback(*pool_);
    obs::traceEvent(obs::EventKind::TxnAbort, poolId_);
    closed_ = true;
    dirty_.clear();
}

bool
Txn::isActive(const Pool &pool)
{
    return readControl(pool).active != 0;
}

void
Txn::formatLog(Pool &pool)
{
    putControl(pool, LogControl{});
}

bool
Txn::recover(Pool &pool)
{
    requireUndo(pool);
    if (!isActive(pool))
        return false;
    rollback(pool);
    canonicalizeHeap(pool);
    return true;
}

Txn::RecoveryReport
Txn::recoverEx(Pool &pool)
{
    requireUndo(pool);
    std::vector<Bytes> entries;
    RecoveryReport r = classifyLog(pool, readControl(pool), &entries);
    if (!r.logActive)
        return r;
    applyEntries(pool, entries);
    canonicalizeHeap(pool);
    r.rolledBack = true;
    return r;
}

Txn::RecoveryReport
Txn::analyze(const Pool &pool)
{
    requireUndo(pool);
    return classifyLog(pool, readControl(pool), nullptr);
}

void
Txn::rollback(Pool &pool)
{
    const LogControl c = readControl(pool);
    applyEntries(pool, validEntries(pool, c));
}

bool
Txn::canonicalizeHeap(Pool &pool)
{
    PoolAllocator alloc(pool);
    const ArenaReport a = alloc.inspectArena();
    if (!a.tagsValid || (a.freeListValid && a.usedBytesMatch))
        return false;
    alloc.rebuildFreeList();
    upr_inform("recovery rebuilt free list for pool %llu (%s)",
               static_cast<unsigned long long>(pool.id()),
               a.what.c_str());
    return true;
}

} // namespace upr

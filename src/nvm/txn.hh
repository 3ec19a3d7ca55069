/**
 * @file
 * Undo-log persistent transactions (the paper's Sec VI "persistent
 * transaction" hook, implemented as an optional extension).
 *
 * The log lives inside the pool: a 16-byte control block (tail,
 * active flag) at the start of the log area, then the entries. A pool
 * image saved mid-transaction therefore replays its undo entries on
 * the next open — simulating crash recovery.
 *
 * Log entry layout:
 *   u32 length (payload bytes), u32 crc32, u64 poolOffset, then the
 *   payload (the pre-image of the range about to be overwritten).
 *   The CRC covers poolOffset, length, and the payload, so recovery
 *   never replays torn or corrupted bytes.
 *
 * ## Durability ordering (write-ahead discipline)
 *
 * Against a Backing with the persistence domain enabled, every step
 * that a later crash must observe is flushed and fenced before the
 * step it protects:
 *
 *   recordWrite: entry + payload -> flush -> tail bump -> flush ->
 *                FENCE, *then* the caller's data write proceeds;
 *   commit:      flush all logged data ranges -> FENCE ->
 *                log truncate -> flush -> FENCE;
 *   rollback:    restore pre-images -> flush -> FENCE ->
 *                log truncate -> flush -> FENCE.
 *
 * So a crash anywhere leaves either (a) no trace of an update, or
 * (b) a durable undo entry for it — never a durable data write
 * without its undo entry.
 */

#ifndef UPR_NVM_TXN_HH
#define UPR_NVM_TXN_HH

#include <utility>
#include <vector>

#include "common/types.hh"
#include "nvm/pool.hh"

namespace upr
{

/**
 * RAII transaction on a single pool. Writers call recordWrite() with a
 * range *before* modifying it; commit() truncates the log; destruction
 * without commit rolls the pool back (abort semantics).
 *
 * A closed Txn can be opened again with begin(), on any pool; it keeps
 * its buffers, so a caller that runs one transaction after another
 * (Runtime) allocates nothing per transaction once they have grown.
 */
class Txn
{
  public:
    /** A closed transaction bound to no pool; begin() opens it. */
    Txn() = default;

    /**
     * Open a transaction on @p pool (see begin()).
     * @throws Fault{BadUsage} if one is already active on the pool
     * @throws Fault{EngineMismatch} if the pool's log region speaks a
     *         different engine (see RedoBatch for redo pools)
     */
    explicit Txn(Pool &pool) { begin(pool); }

    /** Abort (roll back) unless committed. */
    ~Txn();

    Txn(const Txn &) = delete;
    Txn &operator=(const Txn &) = delete;

    /**
     * Open the next transaction on @p pool. Requires closed(). On a
     * throw the object stays closed.
     * @throws Fault{BadUsage} if one is already active on the pool
     * @throws Fault{EngineMismatch} if the pool's log region speaks a
     *         different engine (see RedoBatch for redo pools)
     */
    void begin(Pool &pool);

    /**
     * Log the pre-image of [off, off+len) within the pool. Must be
     * called before the range is modified. Returns only after the
     * entry is durable (flushed and fenced).
     * @throws Fault{PoolFull} when the log area overflows
     */
    void recordWrite(PoolOffset off, Bytes len);

    /**
     * Note a write whose pre-image the persistency analysis proved
     * unnecessary (the target was pmalloc'd inside this transaction,
     * or this exact range was already logged by an earlier store on
     * every path). Zero media work and zero fences: the range is
     * remembered only so commit() still flushes the new data. A range
     * already recorded — by recordWrite or a previous elided note —
     * is a pure no-op.
     */
    void recordElidedWrite(PoolOffset off, Bytes len);

    /** Make all changes durable and clear the log. */
    void commit();

    /** Explicitly roll back now (also clears the log). */
    void abort();

    /** True before begin() and once commit() or abort() has run. */
    bool closed() const { return closed_; }

    /** True if @p pool has an open (uncommitted) transaction log. */
    static bool isActive(const Pool &pool);

    /**
     * Write a sealed empty control block into a fresh pool's log
     * area. Part of pool formatting: the control block carries a
     * checksum, and a plain zeroed log area would fail it (this CRC-32
     * inverts in and out, so even all-zero input has a nonzero sum).
     */
    static void formatLog(Pool &pool);

    /**
     * What recovery found and did. The interesting bit for resilient
     * opens is lostCommittedEntries: the write-ahead discipline means
     * a *pure* crash can only tear the final log entry, so CRC-valid
     * entries found *after* a bad one prove the bad entry is media
     * damage — the writes those later entries protect were executed
     * but can no longer be rolled back, i.e. the pool is torn and
     * must not be served as-is.
     */
    struct RecoveryReport
    {
        bool logActive = false;     //!< an uncommitted log was present
        bool rolledBack = false;    //!< undo entries were applied
        /**
         * Log-control generation (transaction incarnation counter) at
         * recovery time; 0 when the control block is damaged. Shared
         * with the redo engine, whose reports reuse this struct.
         */
        std::uint32_t generation = 0;
        std::size_t entriesReplayed = 0;
        Bytes bytesDiscarded = 0;   //!< log bytes after the last valid entry
        /** CRC-valid entries inside the discarded region (see above). */
        bool lostCommittedEntries = false;
        /**
         * The 16-byte control block fails its checksum. It is written
         * atomically (one cache line), so this is media damage and
         * neither the active flag nor the tail can be trusted; the
         * log's recovery state is unknowable and the pool must not be
         * served. When set, every other field is left defaulted.
         */
        bool controlDamaged = false;
    };

    /**
     * Crash-recovery entry point: if @p pool carries an active log,
     * apply its valid undo entries in reverse order and clear it.
     * Idempotent — recovering twice is a no-op the second time.
     *
     * Hardened against hostile images: a torn final entry (crash
     * mid-append) or a checksum-corrupt entry is discarded with a
     * warning, never replayed; entries whose range falls outside the
     * pool are likewise skipped. Called by openers of freshly loaded
     * images.
     * @return true if a rollback was performed
     */
    static bool recover(Pool &pool);

    /** recover(), reporting what happened (resilient-open path). */
    static RecoveryReport recoverEx(Pool &pool);

    /**
     * Dry-run of recovery: classify the log without mutating the
     * pool (rolledBack stays false — nothing ran).
     */
    static RecoveryReport analyze(const Pool &pool);

    /**
     * Restore the allocator's canonical free list after recovery.
     *
     * Proof-driven logging elision lets committed user stores reach
     * media without a pre-image: a freshly pmalloc'd block's payload
     * overlaps the nextFree/prevFree words it carried while free, so
     * an undo rollback (or a redo crash before the journal publishes)
     * can leave a free block whose link words hold user data under
     * perfectly valid boundary tags. The links are redundant with the
     * tags, so recovery rebuilds them rather than logging them.
     * No-op (and no write) when the heap is already canonical or the
     * tags themselves are damaged — keeping recovery idempotent.
     * @return true if the free list was rebuilt
     */
    static bool canonicalizeHeap(Pool &pool);

  private:
    /** Apply valid undo entries in reverse and clear the log. */
    static void rollback(Pool &pool);

    Pool *pool_ = nullptr;
    bool closed_ = true;

    /**
     * Pool and log state cached at begin(). Exact while the
     * transaction is open: the pool's size and log geometry never
     * change, and only this object writes the control block between
     * begin() and commit()/abort(). tail_ moves only once the control
     * block carrying it has been written and made durable.
     */
    PoolId poolId_ = 0;
    Bytes poolSize_ = 0;
    Bytes logStart_ = 0;      //!< control block
    Bytes logCapacity_ = 0;   //!< bytes of the entry area after it
    std::uint32_t tail_ = 0;
    std::uint32_t generation_ = 0;

    /**
     * Ranges logged this transaction (volatile bookkeeping): commit
     * flushes exactly these so committed data is durable before the
     * log is truncated.
     */
    std::vector<std::pair<Bytes, Bytes>> dirty_;
    /** Pre-image scratch for recordWrite; only ever grows. */
    std::vector<std::uint8_t> preImage_;
};

} // namespace upr

#endif // UPR_NVM_TXN_HH

/**
 * @file
 * Byte storage backing a mapped region of the simulated address space.
 *
 * Backings are the "physical" storage of the simulation. A Backing can
 * outlive its mapping: persistent pools keep their Backing alive while
 * detached, and map it again (possibly at a different virtual address)
 * on reopen — that is what makes pool relocation real in this codebase.
 *
 * ## Persistence domain
 *
 * By default every write is instantly durable — fine for volatile
 * heaps and for functional tests, but it hides the failure modes real
 * NVM has: a cache line that never left the CPU caches is *gone* after
 * a crash, and write-back order is not program order. Enabling the
 * persistence domain (enablePersistenceDomain()) splits the backing in
 * two:
 *
 *   - the *live* bytes: what reads and writes see (CPU caches);
 *   - the *durable* image: what survives a crash (the NVM media).
 *
 * Writes land in the live bytes only and mark their 64-byte lines
 * dirty. flush(off, len) stages the covered lines for write-back
 * (CLWB); fence() completes all staged write-backs into the durable
 * image (SFENCE). crashImage() materializes what a crash at this
 * instant would leave on media:
 *
 *   - CrashMode::DiscardUnfenced — only fenced lines survive (the
 *     strictest schedule: nothing in flight makes it out);
 *   - CrashMode::RetainRandom — each unfenced line *independently*
 *     survives with probability 1/2, modeling write-back reordering
 *     and torn multi-line stores;
 *   - CrashMode::RetainEpoch — epoch persistency (Wang/Tuck PDRM):
 *     lines written before the most recent fence survive even when
 *     never flushed;
 *   - CrashMode::RetainBoundedStale — the media lags program order by
 *     at most kStaleBound epochs: older pending lines are guaranteed
 *     durable, younger ones flip a per-line coin.
 *
 * Lines are the atomicity unit of the model (real NVM guarantees
 * 8-byte atomic writes; we use the coarser line so torn stores are
 * *more* hostile, not less).
 */

#ifndef UPR_MEM_BACKING_HH
#define UPR_MEM_BACKING_HH

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <sys/mman.h>
#define UPR_BYTESTORE_MMAP 1
#endif

#include "common/fault.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace upr
{

/**
 * Zero-on-demand byte buffer backing the simulated "physical" storage.
 *
 * Pools are created at their full size (hundreds of MB) but benchmarks
 * touch only a sliver of them; an eagerly zeroed std::vector pays a
 * full memset plus page faults per pool. ByteStore instead maps
 * anonymous pages, so untouched bytes are shared zero pages that cost
 * nothing until first write — identical observable content (reads of
 * never-written bytes return 0, exactly like the zeroed vector), much
 * cheaper construction. Falls back to a heap allocation when mmap is
 * unavailable.
 */
class ByteStore
{
  public:
    ByteStore() = default;

    explicit ByteStore(Bytes size) { allocate(size); }

    ByteStore(const ByteStore &other)
    {
        allocate(other.size_);
        if (size_ > 0)
            std::memcpy(data_, other.data_, size_);
    }

    ByteStore &
    operator=(const ByteStore &other)
    {
        if (this != &other) {
            ByteStore copy(other);
            swap(copy);
        }
        return *this;
    }

    ByteStore(ByteStore &&other) noexcept { swap(other); }

    ByteStore &
    operator=(ByteStore &&other) noexcept
    {
        if (this != &other) {
            release();
            swap(other);
        }
        return *this;
    }

    ~ByteStore() { release(); }

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    Bytes size() const { return size_; }

    std::uint8_t &operator[](Bytes i) { return data_[i]; }
    const std::uint8_t &operator[](Bytes i) const { return data_[i]; }

    /** Grow to @p new_size, preserving content, zero-filling the tail. */
    void
    resize(Bytes new_size)
    {
        if (new_size <= size_) {
            size_ = new_size;
            return;
        }
        ByteStore grown(new_size);
        if (size_ > 0)
            std::memcpy(grown.data_, data_, size_);
        swap(grown);
    }

    /** Copy out as a plain vector (serialization, crash images). */
    std::vector<std::uint8_t>
    toVector() const
    {
        return std::vector<std::uint8_t>(data_, data_ + size_);
    }

    void
    swap(ByteStore &other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        std::swap(mapBytes_, other.mapBytes_);
    }

  private:
    void
    allocate(Bytes size)
    {
        size_ = size;
        if (size == 0) {
            data_ = nullptr;
            mapBytes_ = 0;
            return;
        }
#ifdef UPR_BYTESTORE_MMAP
        mapBytes_ = size;
        void *p = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            throw Fault(FaultKind::BadUsage,
                        "cannot map backing storage");
        }
        data_ = static_cast<std::uint8_t *>(p);
#else
        mapBytes_ = 0;
        data_ = static_cast<std::uint8_t *>(std::calloc(size, 1));
        if (!data_) {
            throw Fault(FaultKind::BadUsage,
                        "cannot allocate backing storage");
        }
#endif
    }

    void
    release() noexcept
    {
        if (!data_)
            return;
#ifdef UPR_BYTESTORE_MMAP
        ::munmap(data_, mapBytes_);
#else
        std::free(data_);
#endif
        data_ = nullptr;
        size_ = 0;
        mapBytes_ = 0;
    }

    std::uint8_t *data_ = nullptr;
    Bytes size_ = 0;
    /** Bytes actually mapped (may exceed size_ after a shrink). */
    Bytes mapBytes_ = 0;
};

/**
 * What a crash leaves of the unfenced lines — the persistent data
 * retention model of the media (Wang/Tuck PDRM). Epochs are delimited
 * by fence(): every fence closes the current epoch and opens the next.
 */
enum class CrashMode
{
    /** Unfenced lines are lost; only fenced data survives. */
    DiscardUnfenced,
    /**
     * Each unfenced line independently survives with p = 1/2:
     * write-back reordering and torn multi-line stores.
     */
    RetainRandom,
    /**
     * Epoch persistency: lines written before the most recent fence
     * survive even when never flushed (completed epochs drain to
     * media on their own); only current-epoch writes are lost.
     */
    RetainEpoch,
    /**
     * Bounded staleness: the media lags program order by at most
     * Backing::kStaleBound epochs. Pending lines older than the bound
     * are guaranteed durable; younger ones survive with p = 1/2.
     */
    RetainBoundedStale,
};

/** Stable printable name of a crash/retention mode. */
inline const char *
crashModeName(CrashMode mode)
{
    switch (mode) {
      case CrashMode::DiscardUnfenced:    return "discard-unfenced";
      case CrashMode::RetainRandom:       return "retain-random";
      case CrashMode::RetainEpoch:        return "retain-epoch";
      case CrashMode::RetainBoundedStale: return "retain-bounded-stale";
    }
    return "unknown";
}

/** One persistence event, as seen by a CrashInjector. */
enum class PersistEvent
{
    Write, //!< a store into the backing
    Flush, //!< flush(): lines staged for write-back
    Fence, //!< fence(): staged lines reached the durable image
};

/**
 * A DRAM staging buffer for redo-style transactions: while installed
 * on a Backing (setWriteStage), every write is captured here instead
 * of reaching the backing bytes, and reads overlay the staged bytes
 * on top of the backing content. Staged bytes are *volatile by
 * construction* — they are not part of the persistence domain, emit
 * no persistence events, and vanish at a crash — which is exactly the
 * durability contract of an uncommitted redo transaction.
 *
 * Stages nest one level via @c under (a transaction stage layered
 * over a group-commit batch stage): reads see the top stage over the
 * under stage over the media.
 */
struct WriteStage
{
    /** Absolute byte offset -> staged value (sparse, ordered). */
    std::map<Bytes, std::uint8_t> bytes;
    /** Older stage this one shadows (read-through), or nullptr. */
    const WriteStage *under = nullptr;
};

/** A contiguous, resizable byte store. */
class Backing
{
  public:
    /** Cache-line granularity of the persistence domain. */
    static constexpr Bytes kLineBytes = 64;

    /**
     * Staleness bound of CrashMode::RetainBoundedStale, in epochs: a
     * pending line at least this many fences old is guaranteed on
     * media at a crash.
     */
    static constexpr std::uint64_t kStaleBound = 2;

    /** Create a backing of @p size zeroed bytes. */
    explicit Backing(Bytes size = 0) : bytes_(size) {}

    /**
     * Copy: duplicates the bytes and the persistence-domain state
     * (durable image, pending lines, epoch, read-only flag) but NOT
     * the write hook, the persistence observer or an installed write
     * stage — a copy is a fresh view of the same media (crash images,
     * scratch check/repair trials), never a second endpoint of the
     * original's instrumentation.
     */
    Backing(const Backing &other)
        : bytes_(other.bytes_), domainEnabled_(other.domainEnabled_),
          readOnly_(other.readOnly_), fenceEpoch_(other.fenceEpoch_),
          durable_(other.durable_), pending_(other.pending_)
    {
    }

    Backing &
    operator=(const Backing &other)
    {
        if (this != &other) {
            Backing copy(other);
            *this = std::move(copy);
        }
        return *this;
    }

    /** Moves transfer the whole identity, hooks and stage included. */
    Backing(Backing &&) = default;
    Backing &operator=(Backing &&) = default;

    /** Size in bytes. */
    Bytes size() const { return bytes_.size(); }

    /**
     * True while a read is a plain memcpy of the live bytes: no
     * write stage is installed to overlay. Fast-path gate for
     * callers (the Native execution tier) that bypass read() —
     * reads have no observers, so nothing else can differ.
     */
    bool plainRead() const { return stage_ == nullptr; }

    /**
     * True while a write is a plain memcpy into the live bytes:
     * no stage to capture it, no hook or observer to call, not
     * quarantined, and no persistence domain tracking dirty lines.
     */
    bool
    plainWrite() const
    {
        return stage_ == nullptr && writeHook_ == nullptr &&
               !persistObserver_ && !readOnly_ && !domainEnabled_;
    }

    /**
     * Raw live bytes, for fast-path callers that checked
     * plainRead()/plainWrite() first. The pointer is invalidated by
     * grow() and assign().
     */
    std::uint8_t *rawData() { return bytes_.data(); }

    /** Grow to @p new_size bytes (never shrinks). */
    void
    grow(Bytes new_size)
    {
        if (new_size > bytes_.size()) {
            bytes_.resize(new_size);
            if (domainEnabled_)
                durable_.resize(new_size, 0);
        }
    }

    /** Copy @p n bytes at byte offset @p off into @p dst. */
    void
    read(Bytes off, void *dst, Bytes n) const
    {
        checkRange(off, n, "read");
        std::memcpy(dst, bytes_.data() + off, n);
        if (stage_)
            overlayStage(*stage_, off,
                         static_cast<std::uint8_t *>(dst), n);
    }

    /** Copy @p n bytes from @p src to byte offset @p off. */
    void
    write(Bytes off, const void *src, Bytes n)
    {
        checkRange(off, n, "write");
        if (readOnly_) {
            throw Fault(FaultKind::PoolQuarantined,
                        "write to quarantined (read-only) backing");
        }
        if (stage_) {
            // Staged (redo) path: the bytes land in DRAM only. No
            // persistence event fires — nothing touched the media, so
            // there is nothing a crash schedule could tear.
            if (writeHook_)
                writeHook_(writeHookCtx_, off, n);
            const auto *p = static_cast<const std::uint8_t *>(src);
            for (Bytes i = 0; i < n; ++i)
                stage_->bytes[off + i] = p[i];
            return;
        }
        if (persistObserver_)
            persistObserver_(PersistEvent::Write, off, n);
        if (writeHook_)
            writeHook_(writeHookCtx_, off, n);
        std::memcpy(bytes_.data() + off, src, n);
        if (domainEnabled_)
            markLines(off, n, LineState::Dirty);
    }

    /**
     * Install (or, with nullptr, remove) a write stage. At most one
     * stage can be installed — the engine layers transaction-over-
     * batch stages itself via WriteStage::under and installs only the
     * top one here.
     */
    void
    setWriteStage(WriteStage *stage)
    {
        if (stage && stage_) {
            throw Fault(FaultKind::BadUsage,
                        "write stage already installed on backing");
        }
        stage_ = stage;
    }

    /** The installed write stage, or nullptr. */
    const WriteStage *writeStage() const { return stage_; }

    /**
     * Write that bypasses an installed stage and lands directly on
     * the (simulated) media — the redo engine's journal-append and
     * in-place-apply path, which must remain governed by the
     * persistence domain even while user writes are being staged.
     */
    void
    writeThrough(Bytes off, const void *src, Bytes n)
    {
        WriteStage *saved = stage_;
        stage_ = nullptr;
        try {
            write(off, src, n);
        } catch (...) {
            stage_ = saved;
            throw;
        }
        stage_ = saved;
    }

    /**
     * Pre-write hook, called as hook(ctx, offset, length) before
     * every write: the transaction engine's hook (undo pre-image
     * logging, redo elision hints). It sees *all* writes, including
     * allocator-metadata updates, so transactions roll the whole
     * pool state back consistently.
     */
    using WriteHook = void (*)(void *ctx, Bytes off, Bytes n);

    /** Install @p hook with @p ctx; pass nullptr to remove it. */
    void
    setWriteHook(WriteHook hook, void *ctx = nullptr)
    {
        writeHook_ = hook;
        writeHookCtx_ = ctx;
    }

    /**
     * Install a persistence-event observer, invoked *before* each
     * event takes effect (a crash "at" event N means event N never
     * happened). The crash-injection hook; pass nullptr to remove.
     * For Fence events the (offset, length) arguments are (0, 0).
     */
    void
    setPersistObserver(
        std::function<void(PersistEvent, Bytes, Bytes)> observer)
    {
        persistObserver_ = std::move(observer);
    }

    // ------------------------------------------------------------------
    // Persistence domain
    // ------------------------------------------------------------------

    /**
     * Start distinguishing live from durable bytes. The current
     * content becomes the durable image (everything written so far is
     * considered on media). Idempotent.
     */
    void
    enablePersistenceDomain()
    {
        if (domainEnabled_)
            return;
        domainEnabled_ = true;
        durable_ = bytes_.toVector();
        pending_.clear();
    }

    /** True once enablePersistenceDomain() has run. */
    bool persistenceDomainEnabled() const { return domainEnabled_; }

    /**
     * Stage the lines covering [off, off+len) for write-back (CLWB).
     * Durable only after the next fence(). No-op when the domain is
     * disabled; flushing clean lines is allowed and has no effect.
     */
    void
    flush(Bytes off, Bytes len)
    {
        if (!domainEnabled_ || len == 0)
            return;
        checkRange(off, len, "flush");
        if (persistObserver_)
            persistObserver_(PersistEvent::Flush, off, len);
        const Bytes first = off / kLineBytes;
        const Bytes last = (off + len - 1) / kLineBytes;
        for (Bytes line = first; line <= last; ++line) {
            auto it = pending_.find(line);
            if (it != pending_.end())
                it->second.state = LineState::Flushed;
        }
    }

    /**
     * Complete all staged write-backs (SFENCE): every Flushed line is
     * copied into the durable image. Dirty-but-unflushed lines stay
     * volatile. No-op when the domain is disabled.
     */
    void
    fence()
    {
        if (!domainEnabled_)
            return;
        if (persistObserver_)
            persistObserver_(PersistEvent::Fence, 0, 0);
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.state == LineState::Flushed) {
                persistLine(it->first, durable_);
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
        ++fenceEpoch_; // close the epoch the surviving writes live in
    }

    /**
     * The bytes a crash right now would leave on media. With the
     * domain disabled this is simply the current content.
     *
     * @param mode  fate of unfenced lines (the media retention model)
     * @param seed  RNG seed for the probabilistic modes (deterministic
     *              per crash point)
     */
    std::vector<std::uint8_t>
    crashImage(CrashMode mode, std::uint64_t seed = 0) const
    {
        if (!domainEnabled_)
            return bytes_.toVector();
        std::vector<std::uint8_t> image = durable_;
        for (const auto &[line, info] : pending_) {
            switch (mode) {
              case CrashMode::DiscardUnfenced:
                break; // unfenced lines never survive
              case CrashMode::RetainRandom:
                if (lineCoin(line, seed))
                    persistLine(line, image);
                break;
              case CrashMode::RetainEpoch:
                // Completed epochs drained to media by themselves.
                if (info.writeEpoch < fenceEpoch_)
                    persistLine(line, image);
                break;
              case CrashMode::RetainBoundedStale:
                // Media lags by <= kStaleBound epochs: old pending
                // lines are guaranteed durable, younger ones race.
                if (fenceEpoch_ - info.writeEpoch >= kStaleBound) {
                    persistLine(line, image);
                } else if (lineCoin(line, seed)) {
                    persistLine(line, image);
                }
                break;
            }
        }
        return image;
    }

    /** Number of lines that are dirty or flushed-but-unfenced. */
    std::size_t pendingLines() const { return pending_.size(); }

    /** Fences completed so far (the current epoch number). */
    std::uint64_t fenceEpoch() const { return fenceEpoch_; }

    // ------------------------------------------------------------------
    // Quarantine (read-only attach)
    // ------------------------------------------------------------------

    /**
     * Toggle read-only mode: writes throw Fault{PoolQuarantined};
     * reads, flush, and fence remain allowed (they cannot damage the
     * media further). Used to keep a damaged pool inspectable while
     * the rest of the fleet keeps serving.
     */
    void setReadOnly(bool ro) { readOnly_ = ro; }

    /** True while writes are rejected. */
    bool readOnly() const { return readOnly_; }

    /** Raw byte access for serialization (pool images). */
    const ByteStore &raw() const { return bytes_; }

    /** Replace the whole content (pool image load); resets the domain. */
    void
    assign(std::vector<std::uint8_t> content)
    {
        ByteStore fresh(content.size());
        if (!content.empty())
            std::memcpy(fresh.data(), content.data(), content.size());
        bytes_ = std::move(fresh);
        domainEnabled_ = false;
        durable_.clear();
        pending_.clear();
        fenceEpoch_ = 0;
    }

    /** Replace the whole content from another raw store. */
    void
    assign(const ByteStore &content)
    {
        bytes_ = content;
        domainEnabled_ = false;
        durable_.clear();
        pending_.clear();
        fenceEpoch_ = 0;
    }

  private:
    enum class LineState : std::uint8_t
    {
        Dirty,   //!< written, not flushed
        Flushed, //!< flush issued, not yet fenced
    };

    /** Volatile state of one unfenced line. */
    struct LineInfo
    {
        LineState state;
        /** fenceEpoch_ at the line's most recent write. */
        std::uint64_t writeEpoch;
    };

    /**
     * splitmix64 over (seed, line): the deterministic per-line
     * survival coin of the probabilistic retention modes. Independent
     * across lines, reproducible per crash point.
     */
    static bool
    lineCoin(Bytes line, std::uint64_t seed)
    {
        std::uint64_t x = seed + 0x9E37'79B9'7F4A'7C15ULL * (line + 1);
        x ^= x >> 30; x *= 0xBF58'476D'1CE4'E5B9ULL;
        x ^= x >> 27; x *= 0x94D0'49BB'1331'11EBULL;
        x ^= x >> 31;
        return (x & 1) != 0;
    }

    /**
     * Overflow-safe bounds check: rejects hostile offsets where
     * off + n wraps. Faults (catchable) instead of asserting, so
     * corrupt images degrade into typed errors in release builds too.
     */
    void
    checkRange(Bytes off, Bytes n, const char *op) const
    {
        if (n > bytes_.size() || off > bytes_.size() - n) {
            char buf[96];
            std::snprintf(buf, sizeof(buf),
                          "backing %s [%llu,+%llu) outside size %llu",
                          op, (unsigned long long)off,
                          (unsigned long long)n,
                          (unsigned long long)bytes_.size());
            throw Fault(FaultKind::OffsetOutOfPool, buf);
        }
    }

    /** Mark the lines covering [off, off+len) with @p state. */
    void
    markLines(Bytes off, Bytes len, LineState state)
    {
        if (len == 0)
            return;
        const Bytes first = off / kLineBytes;
        const Bytes last = (off + len - 1) / kLineBytes;
        for (Bytes line = first; line <= last; ++line)
            pending_[line] = {state, fenceEpoch_};
    }

    /** Overlay staged bytes (under first, then top) onto @p dst. */
    static void
    overlayStage(const WriteStage &s, Bytes off, std::uint8_t *dst,
                 Bytes n)
    {
        if (s.under)
            overlayStage(*s.under, off, dst, n);
        if (n == 0)
            return;
        for (auto it = s.bytes.lower_bound(off);
             it != s.bytes.end() && it->first - off < n; ++it)
            dst[it->first - off] = it->second;
    }

    /** Copy line @p line of the live bytes into @p dst. */
    void
    persistLine(Bytes line, std::vector<std::uint8_t> &dst) const
    {
        const Bytes off = line * kLineBytes;
        const Bytes n =
            std::min<Bytes>(kLineBytes, bytes_.size() - off);
        std::memcpy(dst.data() + off, bytes_.data() + off, n);
    }

    ByteStore bytes_;
    WriteHook writeHook_ = nullptr;
    void *writeHookCtx_ = nullptr;
    std::function<void(PersistEvent, Bytes, Bytes)> persistObserver_;
    /** Installed redo staging buffer (not owned), or nullptr. */
    WriteStage *stage_ = nullptr;

    bool domainEnabled_ = false;
    bool readOnly_ = false;
    /** Fences completed since the domain (or backing) came up. */
    std::uint64_t fenceEpoch_ = 0;
    /** The crash-surviving image (valid while domainEnabled_). */
    std::vector<std::uint8_t> durable_;
    /** Line index -> volatile state, for every unfenced line. */
    std::unordered_map<Bytes, LineInfo> pending_;
};

} // namespace upr

#endif // UPR_MEM_BACKING_HH

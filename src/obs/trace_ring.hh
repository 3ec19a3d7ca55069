/**
 * @file
 * TraceRing: a fixed-capacity, lock-free(ish) ring of structured
 * runtime events — fault raised, recovery applied, pool adopt,
 * undo-log truncation, elision decision, and friends.
 *
 * Design constraints, in order:
 *
 *  1. Disabled must be (almost) free. Every emission site goes
 *     through traceEvent(), whose fast path is a single well-predicted
 *     branch on a plain bool; no atomics, no call. The runtime flag
 *     comes from the UPR_OBS_TRACE environment variable (any value
 *     except "" or "0") or setTraceEnabled().
 *
 *  2. Emission never blocks and never allocates. append() claims a
 *     slot with one relaxed fetch_add and overwrites the oldest event
 *     on wrap; a reader snapshotting concurrently can observe a slot
 *     mid-overwrite, which the per-slot sequence stamp detects (the
 *     slot is skipped, not torn).
 *
 *  3. This header includes no other upr header except the
 *     header-only common/json.hh, so even common/fault.hh can emit
 *     events without a dependency cycle.
 *
 * Export formats: JSONL (one event object per line) and the Chrome
 * trace_event JSON array loadable in about://tracing / Perfetto.
 */

#ifndef UPR_OBS_TRACE_RING_HH
#define UPR_OBS_TRACE_RING_HH

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <vector>

#include "common/json.hh"

namespace upr::obs
{

/** What happened. Names are stable: they appear in exported JSON. */
enum class EventKind : std::uint32_t
{
    FaultRaised,      //!< a=FaultKind ordinal
    RecoveryApplied,  //!< a=entries replayed, b=1 if rollback ran
    PoolAttach,       //!< a=pool id, b=base VA
    PoolDetach,       //!< a=pool id
    PoolAdopt,        //!< a=pool id, b=1 if recovery rolled back
    PoolOpen,         //!< a=pool id
    UndoTruncate,     //!< a=pool id, b=bytes discarded from the log
    TxnBegin,         //!< a=pool id
    TxnCommit,        //!< a=pool id, b=ranges logged
    TxnAbort,         //!< a=pool id
    CrashPoint,       //!< a=crash point index, b=1 if rolled back
    ElisionDecision,  //!< a=site line, b=1 elided / 0 kept
    MediaFault,       //!< a=MediaFaultKind ordinal, b=byte offset
    PoolQuarantine,   //!< a=pool id
    PoolRepair,       //!< a=pool id, b=issues repaired
    OpenRetry,        //!< a=retry number, b=backoff "ns" (simulated)
    RedoCommit,       //!< a=pool id, b=journal runs written
    RedoApply,        //!< a=pool id, b=entries replayed forward
    GroupFlush,       //!< a=pool id, b=transactions in the batch
};

/** Printable kind name (stable identifiers for exports and tests). */
inline const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::FaultRaised:     return "fault-raised";
      case EventKind::RecoveryApplied: return "recovery-applied";
      case EventKind::PoolAttach:      return "pool-attach";
      case EventKind::PoolDetach:      return "pool-detach";
      case EventKind::PoolAdopt:       return "pool-adopt";
      case EventKind::PoolOpen:        return "pool-open";
      case EventKind::UndoTruncate:    return "undo-truncate";
      case EventKind::TxnBegin:        return "txn-begin";
      case EventKind::TxnCommit:       return "txn-commit";
      case EventKind::TxnAbort:        return "txn-abort";
      case EventKind::CrashPoint:      return "crash-point";
      case EventKind::ElisionDecision: return "elision-decision";
      case EventKind::MediaFault:      return "media-fault";
      case EventKind::PoolQuarantine:  return "pool-quarantine";
      case EventKind::PoolRepair:      return "pool-repair";
      case EventKind::OpenRetry:       return "open-retry";
      case EventKind::RedoCommit:      return "redo-commit";
      case EventKind::RedoApply:       return "redo-apply";
      case EventKind::GroupFlush:      return "group-flush";
    }
    return "unknown";
}

/** One traced event. seq is a global order stamp (0-based). */
struct TraceRingEvent
{
    std::uint64_t seq = 0;
    EventKind kind = EventKind::FaultRaised;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** The ring itself. One process-wide instance via traceRing(). */
class TraceRing
{
  public:
    /** Slots in the ring; power of two. */
    static constexpr std::size_t kCapacity = 4096;

    /** Append one event, overwriting the oldest on wrap. */
    void
    append(EventKind kind, std::uint64_t a, std::uint64_t b)
    {
        const std::uint64_t seq =
            head_.fetch_add(1, std::memory_order_relaxed);
        Slot &s = slots_[seq & (kCapacity - 1)];
        // Seqlock write: mark the slot in-progress (odd stamp), fill
        // the payload with relaxed atomic stores, then publish (even
        // stamp, release). The release fence orders the odd stamp
        // before the payload, so a reader that observes fresh payload
        // bytes is guaranteed to also observe a changed stamp.
        s.stamp.store(2 * seq + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        s.seq.store(seq, std::memory_order_relaxed);
        s.kind.store(static_cast<std::uint32_t>(kind),
                     std::memory_order_relaxed);
        s.a.store(a, std::memory_order_relaxed);
        s.b.store(b, std::memory_order_relaxed);
        s.stamp.store(2 * seq + 2, std::memory_order_release);
    }

    /** Events appended since the last clear(). */
    std::uint64_t
    appended() const
    {
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        const std::uint64_t floor = floor_.load(std::memory_order_relaxed);
        return head > floor ? head - floor : 0;
    }

    /** Events overwritten before they could be read. */
    std::uint64_t
    dropped() const
    {
        const std::uint64_t n = appended();
        return n > kCapacity ? n - kCapacity : 0;
    }

    /**
     * Copy out the retained events, oldest first. Slots being
     * overwritten concurrently are skipped. Reported seq numbers are
     * relative to the last clear() (0-based).
     */
    std::vector<TraceRingEvent>
    snapshot() const
    {
        std::vector<TraceRingEvent> out;
        const std::uint64_t floor =
            floor_.load(std::memory_order_relaxed);
        const std::uint64_t head = head_.load(std::memory_order_relaxed);
        if (head <= floor)
            return out;
        const std::uint64_t first =
            head - floor > kCapacity ? head - kCapacity : floor;
        out.reserve(static_cast<std::size_t>(head - first));
        for (std::uint64_t seq = first; seq < head; ++seq) {
            const Slot &s = slots_[seq & (kCapacity - 1)];
            const std::uint64_t pre =
                s.stamp.load(std::memory_order_acquire);
            if (pre != 2 * seq + 2)
                continue; // overwritten or in flight
            TraceRingEvent e{
                s.seq.load(std::memory_order_relaxed),
                static_cast<EventKind>(
                    s.kind.load(std::memory_order_relaxed)),
                s.a.load(std::memory_order_relaxed),
                s.b.load(std::memory_order_relaxed)};
            // Seqlock read validation: the acquire fence orders the
            // payload loads before the stamp re-check, so a racing
            // overwrite is always detected and the slot skipped.
            std::atomic_thread_fence(std::memory_order_acquire);
            if (s.stamp.load(std::memory_order_relaxed) != pre)
                continue;
            e.seq -= floor;
            out.push_back(e);
        }
        return out;
    }

    /**
     * Forget everything. Safe against concurrent writers: instead of
     * rewinding head_ (which would hand out already-claimed slot
     * stamps again and let a racing append tear a slot), the head
     * jumps forward a full capacity window — every retained slot's
     * stamp is now stale — and the floor advances to the new head.
     * Readers never see pre-clear events again; a writer racing the
     * clear keeps its claimed slot and is either (harmlessly) dropped
     * below the floor or retained intact, never torn.
     */
    void
    clear()
    {
        const std::uint64_t head =
            head_.fetch_add(kCapacity, std::memory_order_relaxed) +
            kCapacity;
        // Floor only moves forward: a concurrent clear() pair cannot
        // leave the floor behind a slot another thread re-claims.
        std::uint64_t prev = floor_.load(std::memory_order_relaxed);
        while (prev < head &&
               !floor_.compare_exchange_weak(prev, head,
                                             std::memory_order_relaxed))
        {}
    }

    /** Export as JSONL: one {"seq","kind","a","b"} object per line. */
    void
    exportJsonl(std::ostream &os) const
    {
        for (const TraceRingEvent &e : snapshot()) {
            JsonWriter json;
            json.beginObject(JsonWriter::Inline);
            json.kv("seq", e.seq);
            json.kv("kind", eventKindName(e.kind));
            json.kv("a", e.a);
            json.kv("b", e.b);
            json.end();
            os << json.str() << '\n';
        }
    }

    /**
     * Export in Chrome trace_event format (instant events; the seq
     * number stands in for a timestamp so ordering is preserved).
     */
    void
    exportChromeTrace(std::ostream &os) const
    {
        JsonWriter json;
        json.beginObject();
        json.key("traceEvents").beginArray();
        for (const TraceRingEvent &e : snapshot()) {
            json.beginObject(JsonWriter::Inline);
            json.kv("name", eventKindName(e.kind));
            json.kv("ph", "i");
            json.kv("s", "g");
            json.kv("pid", 1);
            json.kv("tid", 1);
            json.kv("ts", e.seq);
            json.key("args").beginObject();
            json.kv("a", e.a);
            json.kv("b", e.b);
            json.end();
            json.end();
        }
        json.end();
        json.end();
        os << json.str() << '\n';
    }

  private:
    /** Payload fields are relaxed atomics so a snapshot racing an
     * overwrite reads defined (possibly stale, stamp-detected) bytes
     * instead of tearing — keeps the seqlock data-race-free for TSan. */
    struct Slot
    {
        std::atomic<std::uint64_t> stamp{0};
        std::atomic<std::uint64_t> seq{0};
        std::atomic<std::uint32_t> kind{0};
        std::atomic<std::uint64_t> a{0};
        std::atomic<std::uint64_t> b{0};
    };

    std::atomic<std::uint64_t> head_{0};
    /** Sequence numbers below this are cleared (never exposed). */
    std::atomic<std::uint64_t> floor_{0};
    mutable std::vector<Slot> slots_{kCapacity};
};

namespace detail
{
inline bool
traceEnabledFromEnv()
{
    const char *s = std::getenv("UPR_OBS_TRACE");
    return s != nullptr && *s != '\0' && std::strcmp(s, "0") != 0;
}

/** The runtime gate read on every emission's fast path. */
inline bool g_traceEnabled = traceEnabledFromEnv();
} // namespace detail

/** The process-wide ring. */
inline TraceRing &
traceRing()
{
    static TraceRing ring;
    return ring;
}

/** Is event emission currently on? */
inline bool
traceEnabled()
{
    return detail::g_traceEnabled;
}

/** Turn emission on/off programmatically (overrides UPR_OBS_TRACE). */
inline void
setTraceEnabled(bool on)
{
    detail::g_traceEnabled = on;
}

/**
 * Emit one event. When tracing is disabled this is a single
 * predictable branch — the no-op mode the bench overhead gate holds
 * to <2% wall and zero model-counter drift.
 */
inline void
traceEvent(EventKind kind, std::uint64_t a = 0, std::uint64_t b = 0)
{
    if (traceEnabled()) [[unlikely]]
        traceRing().append(kind, a, b);
}

} // namespace upr::obs

#endif // UPR_OBS_TRACE_RING_HH

/**
 * @file
 * Trace record/replay — the Sniper "trace mode" analogue.
 *
 * A Trace captures the machine-level event stream of one run: memory
 * accesses, branches with outcomes, storeP issues, and fixed-latency
 * work. Replaying the trace re-simulates the re-parameterizable
 * components (TLBs, caches, memory latencies, branch predictor,
 * storeP FSM buffer) under a *different* MachineParams without
 * re-running the workload — replaying under the original parameters
 * reproduces the original cycle count exactly (tested).
 *
 * Translation latencies (POLB/VALB lookups) are carried as fixed
 * events: parameter sweeps over those structures still need a live
 * run (the `bench_harness paper` suite's latency sweeps do that);
 * sweeps over cache geometry,
 * memory latency, TLBs, and the predictor work from the trace alone.
 */

#ifndef UPR_ARCH_TRACE_HH
#define UPR_ARCH_TRACE_HH

#include <string>
#include <vector>

#include "arch/params.hh"
#include "common/types.hh"

namespace upr
{

/** One machine-level event. */
struct TraceEvent
{
    enum class Kind : std::uint8_t
    {
        MemAccess,   //!< a = va; b = (write<<8)|accessKind
        Branch,      //!< a = site; b = taken
        Tick,        //!< a = cycles of fixed-latency work
        StorePIssue, //!< a = rs translation latency; b = rd latency
    };

    Kind kind;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** A recorded event stream with binary (de)serialization. */
class Trace
{
  public:
    /** Append one event (called by the Machine's trace hook). */
    void append(const TraceEvent &e) { events_.push_back(e); }

    const std::vector<TraceEvent> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    void clear() { events_.clear(); }

    /** Write the trace to a host file. */
    void save(const std::string &path) const;

    /** Read a trace from a host file. */
    static Trace load(const std::string &path);

  private:
    std::vector<TraceEvent> events_;
};

/** Counters produced by a replay. */
struct ReplayResult
{
    Cycles cycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t storePs = 0;
};

/**
 * Re-simulate a trace under @p params (fresh, cold machine state).
 */
ReplayResult replayTrace(const Trace &trace,
                         const MachineParams &params);

} // namespace upr

#endif // UPR_ARCH_TRACE_HH

/**
 * @file
 * Shared machinery of the repository benchmark: options, exact
 * latency samples, outside counter snapshots, the span tracer, and
 * the result record every workload fills in.
 *
 * Everything here observes the library from outside: timings are
 * steady_clock reads around calls into public functions, and
 * counters are public accessors read before and after a phase.
 */

#ifndef UPR_PERFBENCH_BENCH_HH
#define UPR_PERFBENCH_BENCH_HH

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hh"
#include "nvm/txn_stats.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * The calling thread's CPU clock: the time it has run, in user and
 * system mode. It stops while the thread is off its CPU. On a virtual
 * machine whose freed guest memory is handed back to the host (free
 * page reporting), touching such memory again makes the host fault it
 * in asynchronously, and the faulting thread sleeps for milliseconds;
 * the workloads that allocate and free memory on every operation
 * time their operations on this clock, so those sleeps (the host's
 * doing, not the library's) stay out of their latencies. Each read is
 * a system call of well under a microsecond: use it only around
 * operations that take hundreds.
 */
struct CpuClock
{
    using duration = std::chrono::nanoseconds;
    using rep = duration::rep;
    using period = duration::period;
    using time_point = std::chrono::time_point<CpuClock>;
    static constexpr bool is_steady = true;

    static time_point
    now()
    {
        timespec ts{};
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return time_point(duration(ts.tv_sec * 1'000'000'000LL +
                                   ts.tv_nsec));
    }
};

template <typename TimePoint>
std::uint64_t
nsBetween(TimePoint a, TimePoint b)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
            .count());
}

template <typename TimePoint>
double
secondsBetween(TimePoint a, TimePoint b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Command-line options shared by every workload. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Corrupt one expected value (oracle self-test). */
    bool plantWrong = false;
    /** Where the traced run writes its span log. */
    std::string traceDir = ".bench_build";
};

/**
 * Per-operation latencies in nanoseconds, kept in log-linear buckets:
 * exact below 128 ns, then 128 sub-buckets per octave up to 2^36 ns,
 * so a bucket is at most 1/128 (0.8%) of its value wide. A percentile
 * interpolates linearly by rank inside its bucket. Memory is fixed.
 */
class Samples
{
  public:
    static constexpr int kSubBits = 7;
    static constexpr std::uint64_t kSub = 1u << kSubBits;
    static constexpr int kMaxBits = 36;
    static constexpr int kBuckets = (kMaxBits - kSubBits + 1) * kSub;

    void
    add(std::uint64_t ns)
    {
        ++counts_[index(ns)];
        ++n_;
    }

    void
    merge(const Samples &other)
    {
        for (int i = 0; i < kBuckets; ++i)
            counts_[i] += other.counts_[i];
        n_ += other.n_;
    }

    std::uint64_t count() const { return n_; }

    /** Percentile @p p (0..100) in microseconds. */
    double percentileUs(double p) const;

  private:
    static int
    index(std::uint64_t v)
    {
        v = std::min<std::uint64_t>(v, (1ULL << kMaxBits) - 1);
        if (v < kSub)
            return static_cast<int>(v);
        const int shift = 63 - __builtin_clzll(v) - kSubBits;
        return (shift + 1) * static_cast<int>(kSub) +
               static_cast<int>((v >> shift) & (kSub - 1));
    }

    std::vector<std::uint32_t> counts_ =
        std::vector<std::uint32_t>(kBuckets);
    std::uint64_t n_ = 0;
};

/**
 * Latencies recorded in consecutive slices of a fixed sample count.
 * A percentile is the median, over groups of consecutive slices, of
 * each group's percentile; a group holds enough samples to put at
 * least 10 beyond the percentile (1000 for a p99), and a new group
 * starts every half group. Host contention that comes and goes during
 * a run then moves a few groups, not the reported value. When only
 * one group fits, the percentile is taken over all samples.
 */
class SlicedSamples
{
  public:
    explicit SlicedSamples(std::uint64_t slice) : slice_(slice) {}

    void
    add(std::uint64_t ns)
    {
        if (slices_.empty() || slices_.back().count() >= slice_)
            slices_.emplace_back();
        slices_.back().add(ns);
    }

    template <typename TimePoint>
    void
    add(TimePoint a, TimePoint b)
    {
        add(nsBetween(a, b));
    }

    /** Append another recorder's slices (e.g. another worker's). */
    void
    merge(const SlicedSamples &other)
    {
        slices_.insert(slices_.end(), other.slices_.begin(),
                       other.slices_.end());
    }

    std::uint64_t count() const;

    /** Groups the @p p percentile is the median of. */
    std::size_t groups(double p) const;

    /** Percentile @p p (0..100) in microseconds. */
    double percentileUs(double p) const;

  private:
    /** Slices per group for percentile @p p. */
    std::size_t groupSize(double p) const;

    /** Slices that count: all but a trailing one under half full. */
    std::size_t usableSlices() const;

    std::uint64_t slice_;
    std::vector<Samples> slices_;
};

/**
 * Throughput measured in consecutive slices (operations, seconds);
 * the rate is the median of the slice rates.
 */
class RateSlices
{
  public:
    void add(std::uint64_t ops, double seconds)
    {
        slices_.push_back({ops, seconds});
    }

    std::size_t count() const { return slices_.size(); }

    /** Median of the per-slice rates (ops/s). */
    double medianRate() const;

  private:
    std::vector<std::pair<std::uint64_t, double>> slices_;
};

/**
 * Order-sensitive digest of a stream of lookup results, one 64-bit
 * word per block of kBlock results, plus the harness's checksum fold
 * over the hit values. Comparing two digests block by block finds
 * every block holding a wrong answer in a few bytes per block.
 */
class ResultDigest
{
  public:
    static constexpr std::uint64_t kBlock = 1024;

    void
    add(bool hit, std::uint64_t value)
    {
        cur_ = (cur_ ^ (hit ? value : kMiss)) * 0x9e3779b97f4a7c15ULL +
               (hit ? 1 : 2);
        if (hit) {
            checksum_ ^= value;
            checksum_ = (checksum_ << 1) | (checksum_ >> 63);
        }
        if (++n_ % kBlock == 0) {
            blocks_.push_back(cur_);
            cur_ = 0;
        }
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t checksum() const { return checksum_; }

    /**
     * Blocks (including a final partial one) that differ from
     * @p expected, or 1 if only the checksum or count differs.
     */
    std::uint64_t mismatches(const ResultDigest &expected) const;

  private:
    static constexpr std::uint64_t kMiss = 0x6d15'5e55'0000'0001ULL;

    std::vector<std::uint64_t> blocks_;
    std::uint64_t cur_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t checksum_ = 0;
};

/** Machine-model counters of one runtime (public accessors only). */
struct ArchCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t memAccesses = 0;
    std::uint64_t storePs = 0;
    std::uint64_t l1Hits = 0, l1Misses = 0;
    std::uint64_t l3Hits = 0, l3Misses = 0;
    std::uint64_t dtlbMisses = 0, pageWalks = 0;
    std::uint64_t branches = 0, branchMisses = 0;
    std::uint64_t polbAccesses = 0, polbWalks = 0;
    std::uint64_t valbAccesses = 0, valbWalks = 0;

    bool operator==(const ArchCounters &) const = default;
};

/** UPR runtime counters (checks, conversions, register reuse). */
struct CoreCounters
{
    std::uint64_t dynamicChecks = 0;
    std::uint64_t absToRel = 0;
    std::uint64_t relToAbs = 0;
    std::uint64_t reuseHits = 0;

    bool operator==(const CoreCounters &) const = default;
};

/** Transaction-engine tallies (TxnStats). */
struct TxnCounters
{
    std::uint64_t commits = 0;
    std::uint64_t flushes = 0;
    std::uint64_t fences = 0;

    bool operator==(const TxnCounters &) const = default;
};

/** Every simulated counter of one runtime at one instant. */
struct SimCounters
{
    ArchCounters arch;
    CoreCounters core;
    TxnCounters txn;

    bool operator==(const SimCounters &) const = default;
};

SimCounters readCounters(upr::Runtime &rt, const upr::TxnStats &txn);

/** @p after - @p before, field by field. */
SimCounters operator-(const SimCounters &after, const SimCounters &before);

/** Field-by-field sum. */
SimCounters &operator+=(SimCounters &acc, const SimCounters &d);

/**
 * Moves the calling thread around the process's allowed CPUs, one
 * step at a time. On a shared host the vCPUs run beside neighbours
 * whose load differs from CPU to CPU and second to second; a run
 * that stays on one vCPU measures that vCPU's neighbours. Stepping
 * every few tens of milliseconds makes every run sample all of its
 * CPUs. Concurrent threads take disjoint parts of the set (thread
 * @p part of @p parts uses every parts-th CPU), so they never share
 * one. The destructor restores the thread's original affinity.
 */
class CpuRotation
{
    // The CPU set is the process's affinity at its first use (see
    // allowedCpus), not the calling thread's current pinning.

  public:
    explicit CpuRotation(unsigned part = 0, unsigned parts = 1);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    /** Move to the next CPU of this thread's part. */
    void step();

  private:
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
};

/** The CPUs the process may run on, read once; call before any
 * CpuRotation pins a thread. */
const std::vector<int> &allowedCpus();

/** getrusage(RUSAGE_SELF) fields the benchmark reports. */
struct Usage
{
    std::uint64_t minorFaults = 0;
    double userS = 0;
    double sysS = 0;
    double maxRssMb = 0;
};

Usage readUsage();

/** One named metric with its unit. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What one workload run reports. */
struct RunOutput
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** End-to-end metrics of the untraced run. */
    std::vector<Metric> endToEnd;
    /** Per-layer metrics of the traced run. */
    std::vector<Metric> perLayer;
    /** Bases of every ratio and the sample counts (informational). */
    std::vector<Metric> detail;
};

/** Names of the spans the traced run records. */
enum class SpanId : std::uint8_t
{
    Op,              //!< one benchmark operation (root)
    ContainersFind,  //!< container find()/get()
    ContainersInsert,//!< container insert()
    NvmBegin,        //!< Runtime::beginTxn
    NvmCommit,       //!< Runtime::commitTxn
    CrashRerun,      //!< workload rerun up to the crash point
    MemAssign,       //!< Backing::assign of the crash image
    NvmRecover,      //!< TxnEngine::recover
    CrashValidate,   //!< recovered-image validation
    CompilerCall,    //!< FastExecutor::call
    Count,
};

const char *spanName(SpanId id);

/**
 * Span tracer owned by one thread. Spans nest; each closed span's
 * self time (duration minus the child spans it covered) is kept per
 * name as exact samples. The first kMaxLogged spans are also kept as
 * raw records and written out at exit. Disabled tracers cost one
 * branch per span.
 */
class Tracer
{
  public:
    static constexpr std::size_t kMaxLogged = 1 << 18;

    explicit Tracer(bool on = false) : on_(on) {}

    bool on() const { return on_; }

    /** RAII span: records [construction, destruction). */
    class Span
    {
      public:
        Span(Tracer &t, SpanId id) : t_(t.on_ ? &t : nullptr)
        {
            if (t_ != nullptr)
                t_->open(id);
        }
        ~Span()
        {
            if (t_ != nullptr)
                t_->close();
        }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *t_;
    };

    /** Self-time samples of spans named @p id. */
    Samples &self(SpanId id) { return self_[static_cast<int>(id)]; }

    /** Merge another thread's tracer into this one. */
    void merge(const Tracer &other);

    /** Write the logged spans as JSON lines to @p path. */
    bool write(const std::string &path, unsigned thread) const;

  private:
    struct Open
    {
        SpanId id;
        std::uint32_t parent; // log index of the parent, or UINT32_MAX
        Clock::time_point start;
        std::uint64_t childNs;
        std::uint32_t logIdx;
    };

    struct Record
    {
        SpanId id;
        std::uint32_t parent;
        std::uint64_t startNs;
        std::uint64_t endNs;
    };

    void open(SpanId id);
    void close();

    bool on_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<Open> stack_;
    std::vector<Record> log_;
    std::uint64_t dropped_ = 0;
    Samples self_[static_cast<int>(SpanId::Count)];
};

/** Mean cost of one steady_clock::now() read, in nanoseconds. */
double timerCostNs();

/** Median of @p xs (by value). */
double median(std::vector<double> xs);

/** Safe ratio: 0 when the base is 0. */
inline double
ratio(double num, double den)
{
    return den == 0 ? 0 : num / den;
}

/** Setups per untraced run: at least kSetupRepeats, and more until
 * kSetupMinSeconds have passed; setup_s is their median. */
constexpr unsigned kSetupRepeats = 3;
constexpr double kSetupMinSeconds = 0.5;

/** Run @p setup repeatedly as above; @return each duration (s). */
template <typename Fn>
std::vector<double>
timeSetups(Fn setup)
{
    std::vector<double> out;
    double total = 0;
    CpuRotation rotation;
    while (out.size() < kSetupRepeats || total < kSetupMinSeconds) {
        rotation.step();
        const auto t0 = Clock::now();
        setup();
        out.push_back(secondsSince(t0));
        total += out.back();
    }
    return out;
}

/**
 * The arch/core per-layer metrics over a counter window of @p ops
 * operations, plus every counter as a base in the detail record.
 */
void addCounterMetrics(RunOutput &out, const SimCounters &w,
                       std::uint64_t ops);

/**
 * The end-to-end latency metrics of the three classes (read, write,
 * op), with each class's sample count and p99 group count as bases.
 */
void addLatencyMetrics(RunOutput &out, const SlicedSamples &read,
                       const SlicedSamples &write, const SlicedSamples &op);

/** mem.minor_faults_per_op and mem.sys_share over [u0, u1]. */
void addUsageMetrics(RunOutput &out, const Usage &u0, const Usage &u1,
                     std::uint64_t ops);

/** Append @p m unless a metric of that name is already present. */
void addMetric(std::vector<Metric> &v, const std::string &name,
               double value, const std::string &unit);

/** Name and unit of one reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The ten end-to-end metrics, in report order. */
const std::vector<MetricSpec> &endToEndSpecs();

/** The per-layer metrics, in report order. */
const std::vector<MetricSpec> &perLayerSpecs();

/**
 * @p reported reordered to @p specs, each with the spec's unit; a
 * metric the workload did not report (its layer does not run there)
 * reads 0.
 */
std::vector<Metric> inSpecOrder(const std::vector<Metric> &reported,
                                const std::vector<MetricSpec> &specs);

/** Workload entry points. */
RunOutput runPaperGrid(const Options &opt);
RunOutput runKvDurable(const Options &opt);
RunOutput runCrashSweep(const Options &opt);
RunOutput runIrNative(const Options &opt);

} // namespace perfbench

#endif // UPR_PERFBENCH_BENCH_HH

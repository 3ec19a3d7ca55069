/**
 * @file
 * Shared benchmark machinery: the paper's two harnesses (the YCSB
 * key-value store harness for Hash/RB/Splay/AVL/SG and the separate
 * traversal harness for LL, Sec VII-A), run under any version with
 * any machine configuration, returning cycle counts and every
 * counter the paper's tables/figures report.
 *
 * Workload sizes default to the paper's (10,000 records / 100,000
 * operations; 10,000 LL nodes). Set UPR_BENCH_SCALE=<divisor> to
 * shrink them for quick runs.
 */

#ifndef UPR_BENCH_BENCH_COMMON_HH
#define UPR_BENCH_BENCH_COMMON_HH

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "containers/linked_list.hh"
#include "kvstore/kv_store.hh"
#include "obs/histogram.hh"

namespace upr::bench
{

/** The six benchmarks of Table III. */
enum class Workload
{
    LL,
    Hash,
    RB,
    Splay,
    AVL,
    SG,
};

inline const char *
workloadName(Workload w)
{
    switch (w) {
      case Workload::LL:    return "LL";
      case Workload::Hash:  return "Hash";
      case Workload::RB:    return "RB";
      case Workload::Splay: return "Splay";
      case Workload::AVL:   return "AVL";
      case Workload::SG:    return "SG";
    }
    return "?";
}

inline const Workload kAllWorkloads[] = {
    Workload::LL,  Workload::Hash, Workload::RB,
    Workload::Splay, Workload::AVL, Workload::SG,
};

/**
 * POD percentile summary of one latency histogram. Cells run in
 * forked children and ship results over a pipe as fixed-size records,
 * so this must stay trivially copyable.
 */
struct HistSummary
{
    std::uint64_t count = 0;
    std::uint64_t p50 = 0;
    std::uint64_t p90 = 0;
    std::uint64_t p99 = 0;
    std::uint64_t max = 0;
};

/** Summarize a histogram into its pipe-safe POD form. */
inline HistSummary
summarize(const obs::LatencyHistogram &h)
{
    HistSummary s;
    const obs::HistogramData &d = h.data();
    s.count = d.count;
    s.p50 = d.percentile(50);
    s.p90 = d.percentile(90);
    s.p99 = d.percentile(99);
    s.max = d.max;
    return s;
}

/** Everything a figure/table might need from one run. */
struct RunStats
{
    Cycles cycles = 0;
    std::uint64_t checksum = 0;

    std::uint64_t memAccesses = 0;
    std::uint64_t storePs = 0;
    std::uint64_t polbAccesses = 0;
    std::uint64_t polbWalks = 0;
    std::uint64_t valbAccesses = 0;
    std::uint64_t valbWalks = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMisses = 0;

    std::uint64_t dynamicChecks = 0;
    std::uint64_t absToRel = 0;
    std::uint64_t relToAbs = 0;
    std::uint64_t reuseHits = 0;

    /**
     * Latency histograms of the run's measured phase, simulated
     * cycles per operation — deterministic like the counters above,
     * so goldens can assert on them.
     */
    HistSummary checkCycles = {};
    HistSummary ptrAssignCycles = {};
};

/** Workload scaling divisor from UPR_BENCH_SCALE (default 1). */
inline std::uint64_t
benchScale()
{
    if (const char *s = std::getenv("UPR_BENCH_SCALE")) {
        const long v = std::atol(s);
        if (v >= 1)
            return static_cast<std::uint64_t>(v);
    }
    return 1;
}

/** The paper's KV workload spec, scaled. */
inline WorkloadSpec
paperSpec()
{
    WorkloadSpec spec;
    spec.recordCount = 10'000 / benchScale();
    spec.operationCount = 100'000 / benchScale();
    return spec;
}

namespace detail
{

/** Snapshot all counters after the timed phase. */
inline RunStats
snapshot(Runtime &rt, Cycles cycles, std::uint64_t checksum)
{
    RunStats st;
    st.cycles = cycles;
    st.checksum = checksum;
    Machine &m = rt.machine();
    st.memAccesses = m.memAccesses();
    st.storePs = m.storePCount();
    st.polbAccesses = m.polb().accesses();
    st.polbWalks = m.polb().walkCount();
    st.valbAccesses = m.valb().accesses();
    st.valbWalks = m.valb().walkCount();
    st.branches = m.bpred().branches();
    st.branchMisses = m.bpred().mispredicts();
    st.dynamicChecks = rt.dynamicChecks();
    st.absToRel = rt.absToRel();
    st.relToAbs = rt.relToAbs();
    st.reuseHits = rt.reuseHits();
    st.checkCycles = summarize(rt.checkHistogram());
    st.ptrAssignCycles = summarize(rt.ptrAssignHistogram());
    return st;
}

/** KV-harness run over one index type. */
template <typename Index>
RunStats
runKvIndex(const Runtime::Config &cfg, const YcsbWorkload &workload)
{
    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("bench", 512 << 20);

    KvStore<Index> store(MemEnv::persistentEnv(rt, pool));
    store.loadPhase(workload);
    // The paper's measurements cover the operation phase; counters
    // reset here while the microarchitectural state stays warm.
    rt.machine().resetAllStats();
    rt.resetCounters();
    const KvRunResult res = store.runPhase(workload);
    return snapshot(rt, res.cycles, res.checksum);
}

} // namespace detail

/**
 * The separate LL harness (Sec VII-A): build node_count nodes, each
 * holding two pointers and a 16-byte value, then iterate the list
 * accumulating the values (the timed phase).
 */
inline RunStats
runLinkedList(const Runtime::Config &cfg, std::uint64_t node_count)
{
    struct Value16
    {
        std::uint64_t lo = 0;
        std::uint64_t hi = 0;
    };

    Runtime rt(cfg);
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("bench", 512 << 20);

    LinkedList<Value16> list(MemEnv::persistentEnv(rt, pool));
    Rng rng(7);
    for (std::uint64_t i = 0; i < node_count; ++i)
        list.pushBack({rng.next(), rng.next()});

    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles start = rt.machine().now();
    std::uint64_t sum = 0;
    list.forEach([&](const Value16 &v) { sum += v.lo + v.hi; });
    return detail::snapshot(rt, rt.machine().now() - start, sum);
}

/**
 * Run one (workload, version) pair with the runtime knobs the paper's
 * sweeps and ablations move off the Table IV defaults: the machine
 * @p params and the MMU-front model @p front.
 */
inline RunStats
run(Workload w, Version version, const MachineParams &params = {},
    MmuFrontModel front = MmuFrontModel::None)
{
    Runtime::Config cfg;
    cfg.version = version;
    cfg.machine = params;
    cfg.seed = 0xB0;
    cfg.mmuFront = front;
    if (w == Workload::LL)
        return runLinkedList(cfg, 10'000 / benchScale());

    const YcsbWorkload workload(paperSpec());
    using K = std::uint64_t;
    using V = std::uint64_t;
    switch (w) {
      case Workload::Hash:
        return detail::runKvIndex<HashMap<K, V>>(cfg, workload);
      case Workload::RB:
        return detail::runKvIndex<RbTree<K, V>>(cfg, workload);
      case Workload::Splay:
        return detail::runKvIndex<SplayTree<K, V>>(cfg, workload);
      case Workload::AVL:
        return detail::runKvIndex<AvlTree<K, V>>(cfg, workload);
      case Workload::SG:
        return detail::runKvIndex<ScapegoatTree<K, V>>(cfg, workload);
      default:
        upr_panic("bad workload");
    }
}

/** Geometric mean. */
inline double
geomean(const std::vector<double> &xs)
{
    double acc = 0;
    for (double x : xs)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(xs.size()));
}

/** Print the Table IV machine-configuration banner. */
inline void
printConfigBanner(const MachineParams &p = {})
{
    std::printf("# machine (paper Table IV): 1 core %.2f GHz, "
                "L1 %llu KiB/%u-way/%" PRIu64 "c, "
                "L2 %llu KiB/%" PRIu64 "c, L3 %llu MiB/%" PRIu64 "c, "
                "DRAM %" PRIu64 "c, NVM %" PRIu64 "c, "
                "POLB %u@%" PRIu64 "c (walk %" PRIu64 "c), "
                "VALB %u@%" PRIu64 "c (walk %" PRIu64 "c)\n",
                p.coreGhz, (unsigned long long)(p.l1Size / 1024),
                p.l1Ways, p.l1Latency,
                (unsigned long long)(p.l2Size / 1024), p.l2Latency,
                (unsigned long long)(p.l3Size / (1024 * 1024)),
                p.l3Latency, p.dramLatency, p.nvmLatency,
                p.polbEntries, p.polbHitLatency, p.powLatency,
                p.valbEntries, p.valbHitLatency, p.vawLatency);
    if (benchScale() != 1) {
        std::printf("# NOTE: workloads scaled down by %" PRIu64
                    "x (UPR_BENCH_SCALE)\n", benchScale());
    }
}

} // namespace upr::bench

#endif // UPR_BENCH_BENCH_COMMON_HH

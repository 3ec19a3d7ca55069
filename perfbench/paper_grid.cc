/**
 * @file
 * paper_grid: the paper's YCSB key-value harness (Sec VII-A) over the
 * five Table III indexes x four versions, on the full timing model.
 *
 * Every cell loads 10k records, then serves the 100k-operation
 * 95/5 GET/SET latest-distribution stream generated from the seed.
 * The timed phase visits the cells round-robin, 5000 operations per
 * visit, each operation a timed find() or insert() call on the
 * cell's index, until the run time is up and every cell has finished
 * its counter window (its first 10k operations). A cell that has run
 * its whole stream is rebuilt and loaded again, untimed, and serves
 * the stream from the start: replaying the stream on the grown table
 * would turn its inserts into overwrites, and how much of a run fell
 * after that change would depend on the host's speed.
 */

#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_map>

#include "arch/trace.hh"
#include "bench.hh"
#include "kvstore/kv_store.hh"

namespace perfbench
{

namespace
{

using namespace upr;
using Key = std::uint64_t;
using Val = std::uint64_t;

constexpr std::uint64_t kRecords = 10'000;
constexpr std::uint64_t kOps = 100'000;
/** Operations per cell whose simulated counters are reported. */
constexpr std::uint64_t kWindow = 10'000;
/** Operations per round-robin visit. */
constexpr std::uint64_t kChunk = 5'000;
static_assert(kWindow % kChunk == 0 && kOps % kChunk == 0,
              "windows and stream passes end on visit boundaries");
/** Requests per op_* window: few, so that few windows hold a timer
 * tick (see README.md). Windows start at each visit's first request
 * and never span two visits. */
constexpr std::uint64_t kOpGroup = 4;

const Version kVersions[] = {Version::Volatile, Version::Sw, Version::Hw,
                             Version::Explicit};

/** One (index, version) cell behind a uniform find/insert face. */
class Cell
{
  public:
    virtual ~Cell() = default;
    virtual std::optional<Val> find(Key k) = 0;
    virtual void insert(Key k, Val v) = 0;
    virtual Runtime &rt() = 0;
    /** Live bytes in the cell's pool (0 under Volatile: no pool). */
    virtual Bytes poolBytes() = 0;
};

template <typename Index>
class CellOf final : public Cell
{
  public:
    CellOf(Version v, Trace *trace) : rt_(config(v))
    {
        // Attached before the first simulated event, so a replay from
        // a cold machine must reproduce the live cycle count.
        rt_.machine().setTrace(trace);
        RuntimeScope scope(rt_);
        pool_ = rt_.createPool("grid", 64ULL << 20);
        index_.emplace(MemEnv::persistentEnv(rt_, pool_));
    }

    ~CellOf() override
    {
        RuntimeScope scope(rt_);
        index_.reset();
    }

    std::optional<Val> find(Key k) override { return index_->find(k); }
    void insert(Key k, Val v) override { index_->insert(k, v); }
    Runtime &rt() override { return rt_; }

    Bytes
    poolBytes() override
    {
        if (rt_.version() == Version::Volatile)
            return 0;
        return rt_.pools().pool(pool_).header().usedBytes;
    }

  private:
    static Runtime::Config
    config(Version v)
    {
        Runtime::Config cfg;
        cfg.version = v;
        cfg.seed = 0xB0;
        return cfg;
    }

    Runtime rt_;
    PoolId pool_ = 0;
    std::optional<Index> index_;
};

std::unique_ptr<Cell>
makeCell(int index, Version v, Trace *trace)
{
    switch (index) {
      case 0: return std::make_unique<CellOf<HashMap<Key, Val>>>(v, trace);
      case 1: return std::make_unique<CellOf<RbTree<Key, Val>>>(v, trace);
      case 2:
        return std::make_unique<CellOf<SplayTree<Key, Val>>>(v, trace);
      case 3: return std::make_unique<CellOf<AvlTree<Key, Val>>>(v, trace);
      default:
        return std::make_unique<CellOf<ScapegoatTree<Key, Val>>>(v,
                                                                 trace);
    }
}

constexpr int kIndexes = 5;
const char *const kIndexNames[kIndexes] = {"Hash", "RB", "Splay", "AVL",
                                           "SG"};

/** Per-cell progress and outcomes of one instance's timed phase. */
struct CellState
{
    int index = 0;
    Version version = Version::Volatile;
    std::unique_ptr<Cell> cell;
    std::unique_ptr<Trace> trace;
    std::uint64_t pos = 0;
    SimCounters start;
    SimCounters window;
    bool windowDone = false;
    /** Observed GET results in stream order. */
    ResultDigest got;
};

/** Latencies and throughput slices of one timed phase. */
struct Latencies
{
    SlicedSamples read{50'000}, write{5'000}, op{50'000};
    /** One slice per round-robin round. */
    RateSlices rate;
};

/** The grid: 20 cells over one generated workload. */
struct Grid
{
    YcsbWorkload workload;
    std::vector<CellState> cells;

    Grid(std::uint64_t seed, bool traced)
        : workload([seed] {
              WorkloadSpec spec;
              spec.recordCount = kRecords;
              spec.operationCount = kOps;
              spec.seed = seed;
              return spec;
          }())
    {
        CpuRotation rotation;
        for (int i = 0; i < kIndexes; ++i) {
            for (Version v : kVersions) {
                rotation.step();
                CellState st;
                st.index = i;
                st.version = v;
                if (traced)
                    st.trace = std::make_unique<Trace>();
                load(st);
                st.start = readCounters(st.cell->rt(),
                                        TxnStats::instance());
                cells.push_back(std::move(st));
            }
        }
    }

    /** Give @p st a fresh cell holding the loaded records. */
    void
    load(CellState &st)
    {
        st.cell.reset();
        st.cell = makeCell(st.index, st.version, st.trace.get());
        RuntimeScope scope(st.cell->rt());
        for (const KvOp &op : workload.loadOps())
            st.cell->insert(op.key, op.value);
    }
};

/**
 * Run @p n operations of @p st's stream, timing each call.
 * @return host seconds spent in the loop
 */
double
runOps(CellState &st, const std::vector<KvOp> &ops, std::uint64_t n,
       Latencies &lat, Tracer &tracer)
{
    Cell &cell = *st.cell;
    RuntimeScope scope(cell.rt());
    const auto loop_start = Clock::now();
    Clock::time_point group_start = loop_start;
    for (std::uint64_t i = 0; i < n; ++i, ++st.pos) {
        const KvOp &op = ops[st.pos % ops.size()];
        Tracer::Span span(tracer, SpanId::Op);
        const auto t0 = Clock::now();
        if (i % kOpGroup == 0)
            group_start = t0;
        if (op.kind == KvOp::Kind::Get) {
            std::optional<Val> r;
            {
                Tracer::Span s(tracer, SpanId::ContainersFind);
                r = cell.find(op.key);
            }
            const auto t1 = Clock::now();
            lat.read.add(t0, t1);
            st.got.add(r.has_value(), r.value_or(0));
            if (i % kOpGroup == kOpGroup - 1)
                lat.op.add(nsBetween(group_start, t1) / kOpGroup);
        } else {
            {
                Tracer::Span s(tracer, SpanId::ContainersInsert);
                cell.insert(op.key, op.value);
            }
            const auto t1 = Clock::now();
            lat.write.add(t0, t1);
            if (i % kOpGroup == kOpGroup - 1)
                lat.op.add(nsBetween(group_start, t1) / kOpGroup);
        }
    }
    return secondsSince(loop_start);
}

void
closeWindow(CellState &st)
{
    if (!st.windowDone && st.pos >= kWindow) {
        st.window = readCounters(st.cell->rt(), TxnStats::instance()) -
                    st.start;
        st.windowDone = true;
    }
}

/**
 * Round-robin the cells until @p seconds of operation time have
 * passed and every counter window is closed.
 * @return operation-loop seconds
 */
double
roundRobin(Grid &g, double seconds, Latencies &lat, Tracer &tracer)
{
    const std::vector<KvOp> &ops = g.workload.runOps();
    double busy = 0;
    bool windows_open = true;
    CpuRotation rotation;
    while (busy < seconds || windows_open) {
        rotation.step();
        windows_open = false;
        double round = 0;
        for (CellState &st : g.cells) {
            if (st.pos != 0 && st.pos % ops.size() == 0)
                g.load(st);
            round += runOps(st, ops, kChunk, lat, tracer);
            closeWindow(st);
            windows_open |= !st.windowDone;
        }
        lat.rate.add(kChunk * g.cells.size(), round);
        busy += round;
    }
    return busy;
}

/**
 * Oracle: replay each cell's executed stream through
 * std::unordered_map, from the loaded records again at every pass,
 * and compare every observed GET (and the checksum fold).
 * @return failed operations (wrong result blocks)
 */
std::uint64_t
checkGrid(const Grid &g, bool plant_wrong)
{
    const std::vector<KvOp> &ops = g.workload.runOps();
    std::uint64_t failed = 0;
    for (std::size_t c = 0; c < g.cells.size(); ++c) {
        const CellState &st = g.cells[c];
        std::unordered_map<Key, Val> loaded;
        for (const KvOp &op : g.workload.loadOps())
            loaded[op.key] = op.value;
        std::unordered_map<Key, Val> ref;
        ResultDigest want;
        for (std::uint64_t i = 0; i < st.pos; ++i) {
            if (i % ops.size() == 0)
                ref = loaded;
            const KvOp &op = ops[i % ops.size()];
            if (op.kind != KvOp::Kind::Get) {
                ref[op.key] = op.value;
                continue;
            }
            const auto it = ref.find(op.key);
            Val v = it != ref.end() ? it->second : 0;
            if (plant_wrong && c == 0 && want.count() == 0)
                v ^= 1;
            want.add(it != ref.end(), v);
        }
        const std::uint64_t bad = st.got.mismatches(want);
        if (bad != 0) {
            std::fprintf(stderr,
                         "paper_grid: cell %s/%s: %llu blocks of GETs "
                         "with wrong results (checksum %016llx, "
                         "expected %016llx)\n",
                         kIndexNames[c / 4], versionName(kVersions[c % 4]),
                         (unsigned long long)bad,
                         (unsigned long long)st.got.checksum(),
                         (unsigned long long)want.checksum());
        }
        failed += bad;
    }
    return failed;
}

std::uint64_t
totalOps(const Grid &g)
{
    std::uint64_t n = 0;
    for (const CellState &st : g.cells)
        n += st.pos;
    return n;
}

SimCounters
windowSum(const Grid &g)
{
    SimCounters sum;
    for (const CellState &st : g.cells)
        sum += st.window;
    return sum;
}

/** The untraced run: repeated setups, one timed phase, the oracle. */
RunOutput
untracedRun(const Options &opt)
{
    RunOutput out;
    std::unique_ptr<Grid> grid;
    const std::vector<double> setups =
        timeSetups([&] {
            grid.reset();
            grid = std::make_unique<Grid>(opt.seed, false);
        });

    Latencies lat;
    Tracer off;
    const Usage u0 = readUsage();
    roundRobin(*grid, opt.seconds, lat, off);
    const Usage u1 = readUsage();
    const std::uint64_t ops = totalOps(*grid);

    out.attempted = ops;
    out.failed = checkGrid(*grid, opt.plantWrong);
    addMetric(out.endToEnd, "setup_s", median(setups), "s");
    addMetric(out.endToEnd, "throughput_ops_s", lat.rate.medianRate(),
              "ops/s");
    addLatencyMetrics(out, lat.read, lat.write, lat.op);
    addMetric(out.detail, "samples.rate_slices", lat.rate.count(), "count");
    addMetric(out.endToEnd, "peak_rss_mb", u1.maxRssMb, "MiB");
    addCounterMetrics(out, windowSum(*grid), kWindow * grid->cells.size());
    addUsageMetrics(out, u0, u1, ops);
    Bytes max_cell = 0;
    for (const CellState &st : grid->cells)
        max_cell = std::max(max_cell, st.cell->poolBytes());
    addMetric(out.detail, "grid.max_cell_pool_bytes", max_cell, "bytes");
    return out;
}

/**
 * The traced run: an untraced instance for the baseline throughput,
 * then a fresh traced instance whose counter windows are recorded
 * with Machine::setTrace, checked against replayTrace, and compared
 * with the untraced windows.
 */
RunOutput
tracedRun(const Options &opt)
{
    RunOutput out;
    const double half = opt.seconds / 2;

    // Untraced baseline.
    std::vector<SimCounters> base_windows;
    double thr_untraced = 0;
    Usage u0, u1;
    std::uint64_t ops_a = 0;
    {
        Grid a(opt.seed, false);
        Latencies lat;
        Tracer off;
        u0 = readUsage();
        roundRobin(a, half, lat, off);
        u1 = readUsage();
        ops_a = totalOps(a);
        thr_untraced = lat.rate.medianRate();
        for (const CellState &st : a.cells)
            base_windows.push_back(st.window);
        out.failed += checkGrid(a, opt.plantWrong);
        out.attempted += ops_a;
    }

    // Traced instance, one cell's window at a time (the event traces
    // of a window are large), then round-robin with spans only.
    Grid b(opt.seed, true);
    Latencies lat;
    Tracer tracer(true);
    const std::vector<KvOp> &ops = b.workload.runOps();
    double busy = 0;
    double replay_ns = 0;
    std::uint64_t window_events = 0;
    for (std::size_t c = 0; c < b.cells.size(); ++c) {
        CellState &st = b.cells[c];
        const std::size_t first = st.trace->size();
        busy += runOps(st, ops, kWindow, lat, tracer);
        closeWindow(st);
        st.cell->rt().machine().setTrace(nullptr);

        // Live cycles must equal the replay of the full event stream.
        const ReplayResult full =
            replayTrace(*st.trace, st.cell->rt().machine().params());
        const Cycles live = st.cell->rt().machine().now();
        if (full.cycles != live) {
            std::fprintf(stderr,
                         "paper_grid: cell %zu live cycles %llu != "
                         "replayTrace cycles %llu\n",
                         c, (unsigned long long)live,
                         (unsigned long long)full.cycles);
            ++out.failed;
        }
        if (!(st.window == base_windows[c])) {
            std::fprintf(stderr,
                         "paper_grid: cell %zu traced counters differ "
                         "from the untraced run\n", c);
            ++out.failed;
        }

        // Arch self time: replay of the window's events alone.
        Trace slice;
        for (std::size_t i = first; i < st.trace->size(); ++i)
            slice.append(st.trace->events()[i]);
        window_events += slice.size();
        st.trace.reset();
        const auto t0 = Clock::now();
        (void)replayTrace(slice, st.cell->rt().machine().params());
        replay_ns += nsBetween(t0, Clock::now());
    }
    busy += roundRobin(b, std::max(0.0, half - busy), lat, tracer);
    const std::uint64_t ops_b = totalOps(b);
    out.failed += checkGrid(b, false);
    out.attempted += ops_b;

    const std::uint64_t window_ops = kWindow * b.cells.size();
    auto &pl = out.perLayer;
    addMetric(pl, "arch.self_ns_per_op", replay_ns / window_ops, "ns");
    addMetric(pl, "arch.events_per_op",
              ratio(window_events, window_ops), "count");
    addMetric(pl, "containers.find_us",
              tracer.self(SpanId::ContainersFind).percentileUs(50), "us");
    addMetric(pl, "containers.insert_us",
              tracer.self(SpanId::ContainersInsert).percentileUs(50), "us");
    addUsageMetrics(out, u0, u1, ops_a);
    // Traced rounds (windows excluded: they also record the machine
    // trace) over untraced rounds.
    addMetric(pl, "harness.trace_overhead",
              ratio(lat.rate.medianRate(), thr_untraced), "ratio");
    addCounterMetrics(out, windowSum(b), window_ops);
    addMetric(out.detail, "arch.window_events", window_events, "count");
    addMetric(out.detail, "arch.replay_ns", replay_ns, "ns");
    addMetric(out.detail, "samples.find_spans",
              tracer.self(SpanId::ContainersFind).count(), "count");
    addMetric(out.detail, "samples.insert_spans",
              tracer.self(SpanId::ContainersInsert).count(), "count");
    tracer.write(opt.traceDir + "/spans-paper_grid.jsonl", 0);
    return out;
}

} // namespace

RunOutput
runPaperGrid(const Options &opt)
{
    return opt.trace ? tracedRun(opt) : untracedRun(opt);
}

} // namespace perfbench

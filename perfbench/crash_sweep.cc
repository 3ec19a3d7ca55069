/**
 * @file
 * crash_sweep: the recovery oracle's cost. A single-threaded RB-tree
 * KV run (HW version, undo pool, one transaction per operation) is
 * crashed at every persistence event under RetainRandom retention
 * seeded from the argument, and every image is recovered and
 * validated — through the same public steps crashSweep() takes, so
 * each can be timed: rerun to the crash point (CrashInjector), copy
 * the image into a fresh Backing (Backing::assign), TxnEngine::recover
 * twice (the second must be a no-op), then validate the recovered
 * pool in a fresh runtime.
 *
 * The seed generates kRuns such runs. One operation is one crash
 * point of one of them. The points of all runs are visited in a
 * seeded permutation, cycling until the run time is up, so every run
 * of the benchmark sees the same mix of early and late points, and a
 * seed whose runs happen to be long or short moves the costs little.
 */

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hh"
#include "common/random.hh"
#include "crash/crash_injector.hh"
#include "kvstore/kv_store.hh"
#include "nvm/engine.hh"

namespace perfbench
{

namespace
{

using namespace upr;
using Tree = RbTree<std::uint64_t, std::uint64_t>;
using State = std::map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kSetupKeys = 128;
constexpr std::size_t kTxnOps = 64;
/** Generated runs per sweep. */
constexpr std::size_t kRuns = 8;
constexpr Bytes kPoolBytes = 128ULL << 10;
/** Points (in visiting order) whose simulated counters are reported. */
constexpr std::uint64_t kWindow = 32;

struct TreeOp
{
    bool erase;
    std::uint64_t key;
    std::uint64_t value;
};

Runtime::Config
sweepConfig()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234; // fixed: every rerun must see the same events
    return cfg;
}

/** One generated run plus the reference state after every prefix. */
struct SweepRun
{
    /** Seeds the run's RetainRandom crash images. */
    std::uint64_t seed = 0;
    std::vector<TreeOp> ops;
    std::vector<State> prefix; // prefix[i] = state after i txns
    std::uint64_t points = 0;
    Bytes dirtiedBytes = 0;

    explicit SweepRun(std::uint64_t seed);
};

/** One crash point: a run and its 1-based persistence event. */
struct Point
{
    std::uint32_t run;
    std::uint64_t event;
};

/** The generated runs and the order their crash points are visited. */
struct Sweep
{
    std::vector<SweepRun> runs;
    std::vector<Point> order;

    explicit Sweep(std::uint64_t seed);

    std::uint64_t points() const { return order.size(); }
    /** Largest bytes dirtied by one run. */
    Bytes dirtiedBytes() const;
};

/** What one rerun left behind. */
struct Rerun
{
    std::size_t committed = 0;
    SimCounters counters;
};

/**
 * Build the store, open the crash window, and run every operation in
 * its own transaction, until the injector fires (or to the end). With
 * @p dirtied, also measure the bytes (whole 64-byte lines) the run
 * changed on media relative to the image the window opened on.
 */
void
runWorkload(const std::vector<TreeOp> &ops, CrashInjector &injector,
            Rerun &out, Bytes *dirtied = nullptr)
{
    out.committed = 0;
    Runtime rt(sweepConfig());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("sweep", kPoolBytes);
    KvStore<Tree> store(MemEnv::persistentEnv(rt, pool));
    rt.pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(store.index().header().bits())));
    for (std::uint64_t k = 0; k < kSetupKeys; ++k)
        store.set(k, k * 10);

    Backing &media = rt.pools().pool(pool).backing();
    injector.attach(media);
    std::vector<std::uint8_t> baseline;
    if (dirtied != nullptr)
        baseline = media.crashImage(CrashMode::DiscardUnfenced);
    const std::uint64_t flushes0 = TxnStats::current().undoFlushes.value();
    const std::uint64_t fences0 = TxnStats::current().undoFences.value();
    const std::uint64_t commits0 = TxnStats::current().undoCommits.value();
    const auto snapshot = [&] {
        out.counters = readCounters(rt, TxnStats::current());
        out.counters.txn.flushes -= flushes0;
        out.counters.txn.fences -= fences0;
        out.counters.txn.commits -= commits0;
    };
    try {
        for (const TreeOp &op : ops) {
            rt.beginTxn(pool);
            if (op.erase)
                store.index().erase(op.key);
            else
                store.set(op.key, op.value);
            rt.commitTxn();
            ++out.committed;
        }
    } catch (const SimulatedCrash &) {
        snapshot();
        throw;
    }
    snapshot();
    if (dirtied != nullptr) {
        const std::vector<std::uint8_t> end =
            media.crashImage(CrashMode::DiscardUnfenced);
        *dirtied = 0;
        for (std::size_t line = 0; line + 64 <= end.size(); line += 64) {
            if (!std::equal(end.begin() + line, end.begin() + line + 64,
                            baseline.begin() + line))
                *dirtied += 64;
        }
    }
}

SweepRun::SweepRun(std::uint64_t run_seed) : seed(run_seed)
{
    Rng rng(seed);
    State live;
    for (std::uint64_t k = 0; k < kSetupKeys; ++k)
        live[k] = k * 10;
    prefix.push_back(live);
    std::uint64_t next_key = kSetupKeys;
    for (std::size_t i = 0; i < kTxnOps; ++i) {
        const std::uint64_t roll = rng.next() % 10;
        TreeOp op{false, 0, rng.next()};
        if (roll < 5 || live.empty()) {
            op.key = next_key++; // fresh insert
        } else {
            auto it = live.begin();
            std::advance(it, rng.next() % live.size());
            op.key = it->first;
            op.erase = roll >= 8; // 30% overwrite, 20% erase
        }
        if (op.erase)
            live.erase(op.key);
        else
            live[op.key] = op.value;
        ops.push_back(op);
        prefix.push_back(live);
    }

    // Profiling pass: count the persistence events (the crash
    // points) and the bytes the run dirties.
    CrashInjector injector(CrashMode::RetainRandom, seed);
    injector.arm(0);
    Rerun r;
    runWorkload(ops, injector, r, &dirtiedBytes);
    points = injector.events();
    if (points == 0)
        throw Fault(FaultKind::BadUsage, "crash_sweep: no events");
}

Sweep::Sweep(std::uint64_t seed)
{
    Rng seeds(seed);
    for (std::size_t r = 0; r < kRuns; ++r) {
        runs.emplace_back(seeds.next());
        for (std::uint64_t e = 1; e <= runs.back().points; ++e)
            order.push_back(Point{static_cast<std::uint32_t>(r), e});
    }
    Rng shuffle(seed ^ 0x5eed);
    for (std::size_t i = order.size() - 1; i > 0; --i)
        std::swap(order[i], order[shuffle.next() % (i + 1)]);
}

Bytes
Sweep::dirtiedBytes() const
{
    Bytes most = 0;
    for (const SweepRun &r : runs)
        most = std::max(most, r.dirtiedBytes);
    return most;
}

/** Points per rate slice. */
constexpr std::uint64_t kSlice = 50;
/** Points per latency slice. Each slice is a full histogram, so small
 * slices would make the benchmark's own memory, and with it
 * peak_rss_mb, grow with the number of points a run gets through. */
constexpr std::uint64_t kLatencySlice = 500;
/** Points between CPU rotation steps (divides kSlice). */
constexpr std::uint64_t kRotate = 10;

/** Latencies and throughput slices of one timed phase. */
struct Latencies
{
    SlicedSamples op{kLatencySlice}, restore{kLatencySlice},
        validate{kLatencySlice};
    RateSlices rate;
};

/** What the timed phase observed. */
struct PhaseResult
{
    std::uint64_t points = 0;
    std::uint64_t failed = 0;
    std::uint64_t rollbacks = 0;
    SimCounters window;
};

/**
 * Validate a recovered image the way the repository's sweep tests
 * do: adopt a copy in a fresh runtime, check the allocator and the
 * tree, and compare the contents with the committed prefix.
 * @return true if the image holds prefix or prefix+1, untorn
 */
bool
validate(const Pool &recovered, const SweepRun &sw, std::size_t committed,
         bool plant_wrong)
{
    Backing image;
    image.assign(recovered.backing().raw());
    Runtime rt(sweepConfig());
    RuntimeScope scope(rt);
    const PoolId id = rt.pools().adoptImage(std::move(image), "crashed");
    rt.pools().allocator(id).checkConsistency();
    const PoolOffset root = rt.pools().pool(id).rootOff();
    if (root == 0)
        return false;
    Tree tree(MemEnv::persistentEnv(rt, id),
              Ptr<Tree::Header>::fromBits(PtrRepr::makeRelative(id, root)));
    tree.validate();
    State actual;
    tree.forEach(
        [&](std::uint64_t k, std::uint64_t v) { actual.emplace(k, v); });
    if (plant_wrong)
        actual[~0ULL] = 0;
    const State &before = sw.prefix.at(committed);
    const State &after = sw.prefix.at(std::min(committed + 1, kTxnOps));
    return actual == before || actual == after;
}

/**
 * Visit crash points in the sweep's order until @p seconds have
 * passed and the counter window is closed. Points and rate slices are
 * timed on the thread's CPU clock (see CpuClock): every point maps
 * and unmaps fresh pools.
 */
PhaseResult
timedPhase(const Sweep &sw, double seconds, Latencies &lat, Tracer &tracer,
           bool plant_wrong)
{
    PhaseResult res;
    const auto start = Clock::now();
    auto slice_start = CpuClock::now();
    CpuRotation rotation;
    for (std::uint64_t i = 0;; ++i) {
        if (i % kSlice == 0) {
            const auto now = CpuClock::now();
            if (i != 0)
                lat.rate.add(kSlice, secondsBetween(slice_start, now));
            slice_start = now;
        }
        if (i % kRotate == 0)
            rotation.step();
        if (i >= kWindow && secondsSince(start) >= seconds)
            break;
        const Point point = sw.order[i % sw.order.size()];
        const SweepRun &run = sw.runs[point.run];
        const std::uint64_t n = point.event;
        Tracer::Span op_span(tracer, SpanId::Op);
        const auto t0 = CpuClock::now();

        CrashInjector injector(CrashMode::RetainRandom, run.seed);
        injector.arm(n);
        Rerun rerun;
        bool crashed = false;
        {
            Tracer::Span s(tracer, SpanId::CrashRerun);
            try {
                runWorkload(run.ops, injector, rerun);
            } catch (const SimulatedCrash &) {
                crashed = true;
            }
        }
        bool ok = crashed && injector.fired();
        if (i < kWindow)
            res.window += rerun.counters;

        // A recovery or validation that throws (a corrupt image) is a
        // failed point, like one that validates to the wrong state.
        const auto t1 = CpuClock::now();
        auto t2 = t1;
        bool rolled_back = false;
        try {
            Backing media;
            {
                Tracer::Span s(tracer, SpanId::MemAssign);
                media.assign(injector.image());
            }
            Pool pool("crash@" + std::to_string(point.run) + "." +
                          std::to_string(n),
                      std::move(media));
            {
                Tracer::Span s(tracer, SpanId::NvmRecover);
                rolled_back = TxnEngine::recover(pool);
            }
            // Recovery must be idempotent.
            if (TxnEngine::recover(pool))
                ok = false;
            t2 = CpuClock::now();
            Tracer::Span s(tracer, SpanId::CrashValidate);
            ok = ok && validate(pool, run, rerun.committed,
                                plant_wrong && i == 0);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "crash_sweep: run %u point %llu: %s\n",
                         point.run, (unsigned long long)n, e.what());
            ok = false;
        }
        const auto t3 = CpuClock::now();

        lat.restore.add(t1, t2);
        lat.validate.add(t2, t3);
        lat.op.add(t0, t3);
        res.rollbacks += rolled_back;
        ++res.points;
        if (!ok) {
            std::fprintf(stderr,
                         "crash_sweep: run %u point %llu failed recovery "
                         "validation (committed %zu)\n",
                         point.run, (unsigned long long)n,
                         rerun.committed);
            ++res.failed;
        }
    }
    return res;
}

void
addCommonDetail(RunOutput &out, const Sweep &sw)
{
    auto &d = out.detail;
    addMetric(d, "sweep.runs", sw.runs.size(), "count");
    addMetric(d, "sweep.points", sw.points(), "count");
    addMetric(d, "sweep.pool_bytes", kPoolBytes, "bytes");
    addMetric(d, "sweep.dirtied_bytes", sw.dirtiedBytes(), "bytes");
}

RunOutput
untracedRun(const Options &opt)
{
    RunOutput out;
    std::unique_ptr<Sweep> sw;
    const std::vector<double> setups =
        timeSetups([&] {
            sw.reset();
            sw = std::make_unique<Sweep>(opt.seed);
        });
    Latencies lat;
    Tracer off;
    const Usage u0 = readUsage();
    const PhaseResult r =
        timedPhase(*sw, opt.seconds, lat, off, opt.plantWrong);
    const Usage u1 = readUsage();

    out.attempted = r.points;
    out.failed = r.failed;
    auto &e = out.endToEnd;
    addMetric(e, "setup_s", median(setups), "s");
    addMetric(e, "throughput_ops_s", lat.rate.medianRate(), "ops/s");
    addMetric(e, "peak_rss_mb", u1.maxRssMb, "MiB");
    addLatencyMetrics(out, lat.validate, lat.restore, lat.op);
    addMetric(out.detail, "samples.rate_slices", lat.rate.count(), "count");
    addUsageMetrics(out, u0, u1, r.points);
    addCounterMetrics(out, r.window, kWindow);
    addCommonDetail(out, *sw);
    return out;
}

RunOutput
tracedRun(const Options &opt)
{
    RunOutput out;
    const double half = opt.seconds / 2;
    const Sweep sw(opt.seed);

    Latencies lat_a;
    Tracer off;
    const Usage u0 = readUsage();
    const PhaseResult a =
        timedPhase(sw, half, lat_a, off, opt.plantWrong);
    const Usage u1 = readUsage();

    Latencies lat_b;
    Tracer tracer(true);
    const PhaseResult b = timedPhase(sw, half, lat_b, tracer, false);
    out.attempted = a.points + b.points;
    out.failed = a.failed + b.failed;
    if (!(a.window == b.window)) {
        std::fprintf(stderr, "crash_sweep: traced counters differ from "
                             "the untraced run\n");
        ++out.failed;
    }

    auto &pl = out.perLayer;
    addMetric(pl, "nvm.recover_p50_us",
              tracer.self(SpanId::NvmRecover).percentileUs(50), "us");
    addMetric(pl, "mem.assign_us",
              tracer.self(SpanId::MemAssign).percentileUs(50), "us");
    addMetric(pl, "crash.rerun_us",
              tracer.self(SpanId::CrashRerun).percentileUs(50), "us");
    addMetric(pl, "crash.validate_us",
              tracer.self(SpanId::CrashValidate).percentileUs(50), "us");
    addMetric(pl, "crash.rollback_ratio",
              ratio(a.rollbacks + b.rollbacks, a.points + b.points),
              "ratio");
    addMetric(pl, "nvm.flushes_per_write",
              ratio(b.window.txn.flushes, b.window.txn.commits), "count");
    addMetric(pl, "nvm.fences_per_write",
              ratio(b.window.txn.fences, b.window.txn.commits), "count");
    addUsageMetrics(out, u0, u1, a.points);
    addMetric(pl, "harness.trace_overhead",
              ratio(lat_b.rate.medianRate(), lat_a.rate.medianRate()),
              "ratio");
    addCounterMetrics(out, b.window, kWindow);
    addCommonDetail(out, sw);
    addMetric(out.detail, "samples.recover_spans",
              tracer.self(SpanId::NvmRecover).count(), "count");
    tracer.write(opt.traceDir + "/spans-crash_sweep.jsonl", 0);
    return out;
}

} // namespace

RunOutput
runCrashSweep(const Options &opt)
{
    return opt.trace ? tracedRun(opt) : untracedRun(opt);
}

} // namespace perfbench

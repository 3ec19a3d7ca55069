/**
 * @file
 * kv_durable: YCSB A (50/50 read/update, zipfian) on the sharded
 * persistent KV store — 2 shards driven by 2 worker threads, HW
 * version, undo engine, group-commit size 1, so every update is its
 * own flushed-and-fenced transaction (the FliT per-operation
 * pattern). 400k records: each shard's table is several times the
 * simulated 2 MiB L3.
 *
 * Closed loop: each worker issues its shard's next request only
 * after the previous one returned, until the run time is up and its
 * counter window (first 5k operations) is closed. Each worker's
 * sub-stream wraps around when it runs out.
 */

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "arch/trace.hh"
#include "bench.hh"
#include "kvstore/concurrent_kv_store.hh"

namespace perfbench
{

namespace
{

using namespace upr;
using Key = std::uint64_t;
using Val = std::uint64_t;

constexpr unsigned kShards = 2;
constexpr std::uint64_t kRecords = 400'000;
constexpr std::uint64_t kOps = 400'000;
constexpr std::uint64_t kWindow = 5'000;
constexpr std::uint64_t kOpGroup = 4;
constexpr std::uint64_t kRateSlice = 1 << 16;
constexpr std::uint64_t kLatencySlice = 100'000;
constexpr Bytes kPoolBytes = 128ULL << 20;

/** One worker's progress and outcomes. */
struct Worker
{
    std::vector<KvOp> load;
    std::vector<KvOp> ops;
    std::uint64_t pos = 0;
    std::uint64_t windowSets = 0;
    SimCounters start;
    SimCounters window;
    SlicedSamples read{kLatencySlice}, write{kLatencySlice},
        op{kLatencySlice};
    /** One slice per kRateSlice operations. */
    RateSlices rate;
    double busyS = 0;
    ResultDigest got;
    Tracer tracer;
    /** Window event trace (traced run only). */
    std::unique_ptr<Trace> trace;
};

ShardedRuntime::Config
fleetConfig()
{
    ShardedRuntime::Config cfg;
    cfg.shards = kShards;
    cfg.runtime.version = Version::Hw;
    cfg.runtime.seed = 0xB0;
    cfg.poolName = "kv";
    cfg.poolSize = kPoolBytes;
    cfg.engine = EngineKind::Undo;
    cfg.groupCommitSize = 1;
    return cfg;
}

/**
 * Run every container and transaction path once on a throwaway
 * single-shard store, on this thread. Branch-predictor site salts
 * are handed out process-wide at each site's first execution; doing
 * that here, in a fixed order, keeps the two workers from racing for
 * them and the simulated counters repeatable.
 */
void
warmSiteSalts()
{
    ShardedRuntime::Config cfg = fleetConfig();
    cfg.shards = 1;
    cfg.poolSize = 4ULL << 20;
    ShardedRuntime fleet(cfg);
    ConcurrentKvStore store(fleet);
    ShardedRuntime::Bind bind(fleet, 0);
    store.map().shard(0).reserve(64);
    for (Key k = 0; k < 64; ++k)
        store.map().set(k, k);
    for (Key k = 0; k < 128; ++k) {
        (void)store.map().get(k);
        store.map().set(k, k + 1);
    }
}

/** A loaded fleet plus its generated, partitioned workload. */
struct Instance
{
    std::unique_ptr<ShardedRuntime> fleet;
    std::unique_ptr<ConcurrentKvStore> store;
    std::vector<Worker> workers;
    Bytes tableBytes[kShards] = {};

    explicit Instance(std::uint64_t seed)
    {
        WorkloadSpec spec = ycsbPreset('A');
        spec.recordCount = kRecords;
        spec.operationCount = kOps;
        spec.seed = seed;
        const YcsbWorkload workload(spec);

        fleet = std::make_unique<ShardedRuntime>(fleetConfig());
        store = std::make_unique<ConcurrentKvStore>(*fleet);
        const auto load = store->partition(workload.loadOps());
        const auto ops = store->partition(workload.runOps());
        workers.resize(kShards);
        for (unsigned s = 0; s < kShards; ++s) {
            workers[s].load = load[s];
            workers[s].ops = ops[s];
        }
        fleet->runOnShards([this](unsigned s) {
            CpuRotation rotation(s, kShards);
            auto &map = store->map();
            map.shard(s).reserve(workers[s].load.size());
            std::uint64_t n = 0;
            for (const KvOp &op : workers[s].load) {
                if (++n % kRateSlice == 0)
                    rotation.step();
                map.set(op.key, op.value);
            }
            Runtime &rt = fleet->runtime(s);
            tableBytes[s] =
                rt.pools().pool(fleet->pool(s)).header().usedBytes;
            workers[s].start = readCounters(rt, fleet->txnStats(s));
        });
    }
};

/** One worker's closed loop over its shard (shard already bound). */
void
workerLoop(Instance &inst, unsigned s, Clock::time_point deadline)
{
    Worker &w = inst.workers[s];
    Runtime &rt = inst.fleet->runtime(s);
    const PoolId pool = inst.fleet->pool(s);
    auto &map = inst.store->map();
    auto &table = map.shard(s);
    TxnStats &txn = inst.fleet->txnStats(s);
    Tracer &tracer = w.tracer;
    if (w.trace)
        rt.machine().setTrace(w.trace.get());

    Clock::time_point group_start{};
    Clock::time_point last = Clock::now();
    Clock::time_point slice_start = last;
    CpuRotation rotation(s, kShards);
    for (;; ++w.pos) {
        if (w.pos % kRateSlice == 0 && w.pos != 0) {
            w.rate.add(kRateSlice,
                       std::chrono::duration<double>(last - slice_start)
                           .count());
            rotation.step();
            last = slice_start = Clock::now();
        }
        if (w.pos == kWindow) {
            w.window = readCounters(rt, txn) - w.start;
            rt.machine().setTrace(nullptr);
        }
        if (w.pos >= kWindow && last >= deadline)
            break;
        const KvOp &op = w.ops[w.pos % w.ops.size()];
        Tracer::Span span(tracer, SpanId::Op);
        const auto t0 = Clock::now();
        if (w.pos % kOpGroup == 0)
            group_start = t0;
        Clock::time_point t1;
        if (op.kind == KvOp::Kind::Get) {
            std::optional<Val> r;
            {
                Tracer::Span f(tracer, SpanId::ContainersFind);
                r = map.get(op.key);
            }
            t1 = Clock::now();
            w.read.add(t0, t1);
            w.got.add(r.has_value(), r.value_or(0));
        } else {
            if (tracer.on()) {
                // The calls ConcurrentHashMap::set makes, one span each.
                {
                    Tracer::Span b(tracer, SpanId::NvmBegin);
                    rt.beginTxn(pool);
                }
                {
                    Tracer::Span i(tracer, SpanId::ContainersInsert);
                    table.insert(op.key, op.value);
                }
                {
                    Tracer::Span c(tracer, SpanId::NvmCommit);
                    rt.commitTxn();
                }
            } else {
                map.set(op.key, op.value);
            }
            t1 = Clock::now();
            w.write.add(t0, t1);
            if (w.pos < kWindow)
                ++w.windowSets;
        }
        last = t1;
        w.busyS += std::chrono::duration<double>(t1 - t0).count();
        if (w.pos % kOpGroup == kOpGroup - 1)
            w.op.add(nsBetween(group_start, t1) / kOpGroup);
    }
}

void
timedPhase(Instance &inst, double seconds)
{
    const auto t0 = Clock::now();
    const auto deadline =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    inst.fleet->runOnShards(
        [&inst, deadline](unsigned s) { workerLoop(inst, s, deadline); });
}

/**
 * Oracle: replay each shard's executed stream through
 * std::unordered_map, compare every GET and the checksum, then the
 * final table entry by entry.
 * @return failed operations
 */
std::uint64_t
checkInstance(Instance &inst, bool plant_wrong)
{
    std::uint64_t failed = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        const Worker &w = inst.workers[s];
        std::unordered_map<Key, Val> ref;
        for (const KvOp &op : w.load)
            ref[op.key] = op.value;
        ResultDigest want;
        for (std::uint64_t i = 0; i < w.pos; ++i) {
            const KvOp &op = w.ops[i % w.ops.size()];
            if (op.kind != KvOp::Kind::Get) {
                ref[op.key] = op.value;
                continue;
            }
            const auto it = ref.find(op.key);
            Val v = it != ref.end() ? it->second : 0;
            if (plant_wrong && s == 0 && want.count() == 0)
                v ^= 1;
            want.add(it != ref.end(), v);
        }
        const std::uint64_t bad = w.got.mismatches(want);

        // The final durable table must hold exactly the replayed state.
        ShardedRuntime::Bind bind(*inst.fleet, s);
        auto &map = inst.store->map();
        std::uint64_t table_bad = 0;
        for (const auto &[k, v] : ref) {
            const std::optional<Val> r = map.get(k);
            if (!r || *r != v)
                ++table_bad;
        }
        if (map.shard(s).size() != ref.size())
            ++table_bad;
        if (bad != 0 || table_bad != 0) {
            std::fprintf(stderr,
                         "kv_durable: shard %u: %llu blocks of GETs with "
                         "wrong results, %llu "
                         "final-table mismatches\n",
                         s, (unsigned long long)bad,
                         (unsigned long long)table_bad);
        }
        failed += bad + table_bad;
    }
    return failed;
}

/** Sum over workers of each worker's median slice rate. */
double
throughput(const Instance &inst)
{
    double rate = 0;
    for (const Worker &w : inst.workers)
        rate += w.rate.medianRate();
    return rate;
}

std::uint64_t
totalOps(const Instance &inst)
{
    std::uint64_t n = 0;
    for (const Worker &w : inst.workers)
        n += w.pos;
    return n;
}

SimCounters
windowSum(const Instance &inst)
{
    SimCounters sum;
    for (const Worker &w : inst.workers)
        sum += w.window;
    return sum;
}

std::uint64_t
windowSets(const Instance &inst)
{
    std::uint64_t n = 0;
    for (const Worker &w : inst.workers)
        n += w.windowSets;
    return n;
}

void
addNvmCounts(RunOutput &out, const Instance &inst)
{
    const SimCounters win = windowSum(inst);
    const std::uint64_t sets = windowSets(inst);
    addMetric(out.perLayer, "nvm.flushes_per_write",
              ratio(win.txn.flushes, sets), "count");
    addMetric(out.perLayer, "nvm.fences_per_write",
              ratio(win.txn.fences, sets), "count");
    addCounterMetrics(out, win, kWindow * kShards);
    addMetric(out.detail, "window.writes", sets, "count");
    for (unsigned s = 0; s < kShards; ++s) {
        addMetric(out.detail, "shard" + std::to_string(s) + ".table_bytes",
                  inst.tableBytes[s], "bytes");
    }
}

RunOutput
untracedRun(const Options &opt)
{
    RunOutput out;
    warmSiteSalts();
    std::unique_ptr<Instance> inst;
    const std::vector<double> setups =
        timeSetups([&] {
            inst.reset();
            inst = std::make_unique<Instance>(opt.seed);
        });

    const Usage u0 = readUsage();
    timedPhase(*inst, opt.seconds);
    const Usage u1 = readUsage();
    SlicedSamples read{kLatencySlice}, write{kLatencySlice},
        op{kLatencySlice};
    for (const Worker &w : inst->workers) {
        read.merge(w.read);
        write.merge(w.write);
        op.merge(w.op);
    }
    const std::uint64_t ops = totalOps(*inst);
    out.attempted = ops;
    out.failed = checkInstance(*inst, opt.plantWrong);

    auto &e = out.endToEnd;
    addMetric(e, "setup_s", median(setups), "s");
    addMetric(e, "throughput_ops_s", throughput(*inst), "ops/s");
    addMetric(e, "peak_rss_mb", u1.maxRssMb, "MiB");
    addLatencyMetrics(out, read, write, op);
    addUsageMetrics(out, u0, u1, ops);
    addNvmCounts(out, *inst);
    return out;
}

RunOutput
tracedRun(const Options &opt)
{
    RunOutput out;
    warmSiteSalts();
    const double half = opt.seconds / 2;

    SimCounters base_window[kShards];
    double thr_untraced = 0;
    Usage u0, u1;
    std::uint64_t ops_a = 0;
    {
        Instance a(opt.seed);
        u0 = readUsage();
        timedPhase(a, half);
        u1 = readUsage();
        ops_a = totalOps(a);
        thr_untraced = throughput(a);
        for (unsigned s = 0; s < kShards; ++s)
            base_window[s] = a.workers[s].window;
        out.failed += checkInstance(a, opt.plantWrong);
        out.attempted += ops_a;
    }

    Instance b(opt.seed);
    for (Worker &w : b.workers) {
        w.tracer = Tracer(true);
        w.trace = std::make_unique<Trace>();
    }
    timedPhase(b, half);
    const std::uint64_t ops_b = totalOps(b);
    out.failed += checkInstance(b, false);
    out.attempted += ops_b;

    for (unsigned s = 0; s < kShards; ++s) {
        if (!(b.workers[s].window == base_window[s])) {
            std::fprintf(stderr,
                         "kv_durable: shard %u traced counters differ "
                         "from the untraced run\n", s);
            ++out.failed;
        }
    }

    // Arch self time: replay of each shard's window events. The
    // window starts on a warm machine, so the replay's cold-start
    // cycle count is not compared here (paper_grid checks that).
    double replay_ns = 0;
    std::uint64_t events = 0;
    Tracer tracer(true);
    double busy_max = 0, busy_sum = 0;
    for (unsigned s = 0; s < kShards; ++s) {
        Worker &w = b.workers[s];
        events += w.trace->size();
        const auto t0 = Clock::now();
        (void)replayTrace(*w.trace, b.fleet->runtime(s).machine().params());
        replay_ns += nsBetween(t0, Clock::now());
        w.trace.reset();
        tracer.merge(w.tracer);
        busy_max = std::max(busy_max, w.busyS);
        busy_sum += w.busyS;
        if (!w.tracer.write(opt.traceDir + "/spans-kv_durable.jsonl", s))
            std::fprintf(stderr, "kv_durable: cannot write span log\n");
    }
    const std::uint64_t window_ops = kWindow * kShards;
    auto &pl = out.perLayer;
    addMetric(pl, "arch.self_ns_per_op", replay_ns / window_ops, "ns");
    addMetric(pl, "arch.events_per_op", ratio(events, window_ops), "count");
    addMetric(pl, "core.shard_busy_max_over_mean",
              ratio(busy_max, busy_sum / kShards), "ratio");
    addMetric(pl, "containers.find_us",
              tracer.self(SpanId::ContainersFind).percentileUs(50), "us");
    addMetric(pl, "containers.insert_us",
              tracer.self(SpanId::ContainersInsert).percentileUs(50), "us");
    addMetric(pl, "nvm.commit_p50_us",
              tracer.self(SpanId::NvmCommit).percentileUs(50), "us");
    addMetric(pl, "nvm.commit_p99_us",
              tracer.self(SpanId::NvmCommit).percentileUs(99), "us");
    addUsageMetrics(out, u0, u1, ops_a);
    addMetric(pl, "harness.trace_overhead",
              ratio(throughput(b), thr_untraced), "ratio");
    addNvmCounts(out, b);
    addMetric(out.detail, "samples.commit_spans",
              tracer.self(SpanId::NvmCommit).count(), "count");
    return out;
}

} // namespace

RunOutput
runKvDurable(const Options &opt)
{
    return opt.trace ? tracedRun(opt) : untracedRun(opt);
}

} // namespace perfbench

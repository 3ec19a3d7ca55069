/**
 * @file
 * The one bench driver: a registry of named suites, each running its
 * cells, writing its BENCH_*.json (if it has a golden) and printing its
 * paper tables.
 *
 *   fig11       the Fig 11 grid (6 workloads x 4 versions), one forked
 *               child per cell -> BENCH_fig11.json, printed as Figs 11,
 *               13, 15 and Tables III and V
 *   micro       pointer-op microkernels -> BENCH_micro.json
 *   paper       every other table and figure of the evaluation plus
 *               the ablations (bench_paper.cpp); no golden
 *   concurrent  the sharded KV store at T threads -> BENCH_concurrent
 *   static      check plans of the Fig 9 program -> BENCH_static.json
 *   fault       hostile-media fault sweep -> BENCH_fault.json
 *   txn         undo/redo/group-commit engines -> BENCH_txn.json
 *   exec        FastExecutor Model vs Native tiers -> BENCH_exec.json
 *
 * The JSON records both the harness wall time and the sum of per-cell
 * wall times so the speedup is auditable, and scripts/bench_diff.py
 * compares two result files (wall regression = warning, any other
 * cell-key drift = hard error).
 *
 * Usage: bench_harness [--quick] [--jobs N] [--out DIR] [SUITE...]
 *   --quick   scale workloads down 100x (smoke test; implies scale
 *             via UPR_BENCH_SCALE only if that variable is unset)
 *   --jobs N  worker processes (default: hardware concurrency)
 *   --out DIR output directory for the JSON files (default: .)
 *   SUITE...  suites to run, in any order (default: fig11 micro
 *             static); they always run in registry order
 */

#include <cstring>
#include <fstream>
#include <thread>

#include <map>

#include "bench_harness.hh"
#include "bench_ir.hh"
#include "common/json.hh"
#include "compiler/analysis/abstract_interp.hh"
#include "compiler/analysis/elision.hh"
#include "compiler/demo_programs.hh"
#include "compiler/interpreter.hh"
#include "compiler/ir_parser.hh"
#include "containers/bst_common.hh"
#include "core/ptr.hh"
#include "faultinject/fault_sweep.hh"
#include "kvstore/concurrent_kv_store.hh"
#include "kvstore/kv_store.hh"
#include "obs/trace_ring.hh"
#include "txn_ir_workload.hh"

#ifndef UPR_GIT_REV
#define UPR_GIT_REV "unknown"
#endif

using namespace upr;
using namespace upr::bench;

namespace
{

// ----------------------------------------------------------------------
// Fig 11 grid, and the tables of the paper that read it (Sec VII):
// Figs 11, 13 and 15 and Tables III and V all come from the same 24
// cells that go into BENCH_fig11.json.
// ----------------------------------------------------------------------

void
emitHistSummary(JsonWriter &json, const char *name,
                const HistSummary &h)
{
    json.key(name).beginObject();
    json.kv("count", h.count);
    json.kv("p50", h.p50);
    json.kv("p90", h.p90);
    json.kv("p99", h.p99);
    json.kv("max", h.max);
    json.end();
}

void
emitStats(JsonWriter &json, const RunStats &st)
{
    json.kv("cycles", st.cycles);
    json.kv("checksum", st.checksum);
    json.kv("memAccesses", st.memAccesses);
    json.kv("storePs", st.storePs);
    json.kv("polbAccesses", st.polbAccesses);
    json.kv("polbWalks", st.polbWalks);
    json.kv("valbAccesses", st.valbAccesses);
    json.kv("valbWalks", st.valbWalks);
    json.kv("branches", st.branches);
    json.kv("branchMisses", st.branchMisses);
    json.kv("dynamicChecks", st.dynamicChecks);
    json.kv("absToRel", st.absToRel);
    json.kv("relToAbs", st.relToAbs);
    json.kv("reuseHits", st.reuseHits);
    // Per-operation latency histograms of the measured phase.
    // Simulated cycles, deterministic like the counters above.
    json.key("metrics").beginObject();
    emitHistSummary(json, "checkCycles", st.checkCycles);
    emitHistSummary(json, "ptrAssignCycles", st.ptrAssignCycles);
    json.end();
}

void
emitHeader(JsonWriter &json, unsigned jobs)
{
    json.kv("schema", std::uint64_t{1});
    json.kv("gitRev", UPR_GIT_REV);
    json.kv("benchScale", benchScale());
    json.kv("jobs", std::uint64_t{jobs});
}

/**
 * Write @p json as @p name in the output directory.
 * @return the file's path, or "" on an I/O error (reported).
 */
std::string
writeJson(const JsonWriter &json, const SuiteContext &ctx,
          const char *name)
{
    const std::string path = ctx.outDir + "/" + name;
    if (json.writeFile(path))
        return path;
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return "";
}

/** Figure 11: execution time normalized to Volatile. */
void
printFig11(const SimCache &sims)
{
    std::printf("\nFigure 11: execution time normalized to Volatile "
                "(lower is better)\n");
    std::printf("%-6s %10s %10s %10s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit");
    std::vector<double> hw_norm, sw_norm, ex_norm, hw_vs_ex;
    for (Workload w : kAllWorkloads) {
        const double base =
            static_cast<double>(sims.stats({w, Version::Volatile}).cycles);
        const auto norm = [&](Version v) {
            return static_cast<double>(sims.stats({w, v}).cycles) / base;
        };
        const double h = norm(Version::Hw), s = norm(Version::Sw),
                     e = norm(Version::Explicit);
        hw_norm.push_back(h);
        sw_norm.push_back(s);
        ex_norm.push_back(e);
        hw_vs_ex.push_back(e / h);
        std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n",
                    workloadName(w), 1.0, h, s, e);
    }
    std::printf("%-6s %10.3f %10.3f %10.3f %10.3f\n", "gmean", 1.0,
                geomean(hw_norm), geomean(sw_norm), geomean(ex_norm));
    std::printf("\npaper expectations: HW ~1.0-1.12x, SW avg ~2.75x, "
                "Explicit/HW ~1.33x (ours: %.2fx)\n",
                geomean(hw_vs_ex));
}

/**
 * Figure 13: branch mispredictions normalized to Volatile. SW's checks
 * are conditional branches (paper: 6.7x-2944x HW's mispredictions);
 * HW adds none, so it sits at ~1.0.
 */
void
printFig13(const SimCache &sims)
{
    std::printf("\nFigure 13: branch mispredictions normalized to "
                "Volatile (lower is better)\n");
    std::printf("%-6s %12s %12s %12s %12s %10s\n", "bench", "Volatile",
                "HW", "SW", "Explicit", "SW/HW");
    for (Workload w : kAllWorkloads) {
        const double base = static_cast<double>(std::max<std::uint64_t>(
            sims.stats({w, Version::Volatile}).branchMisses, 1));
        const auto norm = [&](Version v) {
            return static_cast<double>(sims.stats({w, v}).branchMisses) /
                   base;
        };
        const double h = norm(Version::Hw), s = norm(Version::Sw);
        std::printf("%-6s %12.2f %12.2f %12.2f %12.2f %10.1f\n",
                    workloadName(w), 1.0, h, s, norm(Version::Explicit),
                    s / std::max(h, 1e-9));
    }
    std::printf("\n(absolute branch counts, for reference)\n");
    std::printf("%-6s %14s %14s %14s\n", "bench", "Volatile.br",
                "SW.br", "SW.miss");
    for (Workload w : kAllWorkloads) {
        const RunStats &sw = sims.stats({w, Version::Sw});
        std::printf("%-6s %14" PRIu64 " %14" PRIu64 " %14" PRIu64 "\n",
                    workloadName(w),
                    sims.stats({w, Version::Volatile}).branches,
                    sw.branches, sw.branchMisses);
    }
    std::printf("\npaper expectation: SW mispredictions 6.7-2944x "
                "those of HW; HW ~= Volatile\n");
}

/**
 * Figure 15: of all HW memory accesses, the share that are storeP,
 * touch the VALB/VAW, or touch the POLB/POW (paper: 0.38%, 0.22%,
 * 12.6%).
 */
void
printFig15(const SimCache &sims)
{
    std::printf("\nFigure 15: share of memory accesses touching each "
                "UPR structure (HW version)\n");
    std::printf("%-6s %14s %12s %12s %12s\n", "bench", "mem accesses",
                "storeP %", "VALB %", "POLB %");
    double sp_sum = 0, va_sum = 0, po_sum = 0;
    for (Workload w : kAllWorkloads) {
        const RunStats &hw = sims.stats({w, Version::Hw});
        const double total = static_cast<double>(hw.memAccesses);
        const double sp = 100.0 * hw.storePs / total;
        const double va = 100.0 * hw.valbAccesses / total;
        const double po = 100.0 * hw.polbAccesses / total;
        sp_sum += sp;
        va_sum += va;
        po_sum += po;
        std::printf("%-6s %14" PRIu64 " %11.3f%% %11.3f%% %11.3f%%\n",
                    workloadName(w), hw.memAccesses, sp, va, po);
    }
    const double n = static_cast<double>(std::size(kAllWorkloads));
    std::printf("%-6s %14s %11.3f%% %11.3f%% %11.3f%%\n", "mean", "",
                sp_sum / n, va_sum / n, po_sum / n);
    std::printf("\npaper: 0.38%% storeP, 0.22%% VALB/VAW, 12.6%% "
                "POLB/POW\n");
}

/**
 * Lines of the repo source file @p rel, read from the source tree the
 * harness was built from. @return false if the file cannot be read.
 */
bool
sourceLines(const std::string &rel, std::uint64_t &n)
{
    std::ifstream is(std::string(UPR_SOURCE_DIR) + "/" + rel);
    if (!is) {
        std::fprintf(stderr, "FAIL table3: cannot read %s/%s\n",
                     UPR_SOURCE_DIR, rel.c_str());
        return false;
    }
    n = 0;
    std::string line;
    while (std::getline(is, line))
        ++n;
    return true;
}

/** Table III: the six data structures. @return false on a missing source. */
bool
printTableIII(const SimCache &sims)
{
    using Node = TreeNode<std::uint64_t, std::uint64_t>;
    struct Row
    {
        const char *desc;
        const char *file;
        std::uint64_t nodeBytes;
    };
    // Indexed like kAllWorkloads.
    const Row rows[] = {
        {"doubly linked list (2 ptrs + 16 B value)",
         "src/containers/linked_list.hh", 32},
        {"separate-chaining hash map", "src/containers/hash_map.hh",
         24},
        {"red-black tree", "src/containers/rb_tree.hh", sizeof(Node)},
        {"splay tree", "src/containers/splay_tree.hh", sizeof(Node)},
        {"AVL tree", "src/containers/avl_tree.hh", sizeof(Node)},
        {"scapegoat tree (alpha=0.7)",
         "src/containers/scapegoat_tree.hh", sizeof(Node)},
    };
    static_assert(std::size(rows) == std::size(kAllWorkloads));

    std::printf("\nTable III: the six benchmark data structures\n");
    std::printf("%-6s %-44s %8s %10s\n", "name", "description", "LoC",
                "node (B)");
    bool ok = true;
    std::uint64_t total = 0;
    for (const char *shared : {"src/containers/bst_common.hh",
                               "src/containers/memory_env.hh"}) {
        std::uint64_t loc = 0;
        ok = sourceLines(shared, loc) && ok;
        total += loc;
    }
    for (std::size_t i = 0; i < std::size(rows); ++i) {
        std::uint64_t loc = 0;
        ok = sourceLines(rows[i].file, loc) && ok;
        total += loc;
        std::printf("%-6s %-44s %8" PRIu64 " %10" PRIu64 "\n",
                    workloadName(kAllWorkloads[i]), rows[i].desc, loc,
                    rows[i].nodeBytes);
    }
    std::printf("%-6s %-44s %8" PRIu64 "\n", "total",
                "(incl. shared BST base + MemEnv)", total);

    // The LL harness builds its nodes; the KV harness loads its
    // records, and the run phase's SETs may insert more.
    const std::uint64_t nodes = 10'000 / benchScale();
    const std::string records =
        std::to_string(paperSpec().recordCount) + "+";
    std::printf("\npopulation after the load phase (%" PRIu64
                " records), and the HW run phase's memory accesses:\n",
                paperSpec().recordCount);
    std::printf("%-6s %12s %18s\n", "bench", "entries",
                "run mem accesses");
    for (Workload w : kAllWorkloads) {
        std::printf("%-6s %12s %18" PRIu64 "\n", workloadName(w),
                    w == Workload::LL ? std::to_string(nodes).c_str()
                                      : records.c_str(),
                    sims.stats({w, Version::Hw}).memAccesses);
    }
    std::printf("\npaper: Boost originals total 22,206 LoC; ours are "
                "purpose-built equivalents.\n");
    return ok;
}

/** Table V: dynamic checks and conversions per benchmark. */
void
printTableV(const SimCache &sims)
{
    std::printf("\nTable V: dynamic checks and conversions per "
                "benchmark (SW version)\n");
    std::printf("%-6s %16s %16s %16s\n", "bench", "dynamic checks",
                "abs. to rel.", "rel. to abs.");
    for (Workload w : kAllWorkloads) {
        const RunStats &sw = sims.stats({w, Version::Sw});
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 " %16" PRIu64 "\n",
                    workloadName(w), sw.dynamicChecks, sw.absToRel,
                    sw.relToAbs);
    }
    std::printf("\n(HW version conversion traffic, showing the "
                "reuse effect of Fig 12)\n");
    std::printf("%-6s %16s %16s\n", "bench", "abs. to rel.",
                "rel. to abs.");
    for (Workload w : kAllWorkloads) {
        const RunStats &hw = sims.stats({w, Version::Hw});
        std::printf("%-6s %16" PRIu64 " %16" PRIu64 "\n",
                    workloadName(w), hw.absToRel, hw.relToAbs);
    }
}

/** @return true on success (all cells ran, checksums agree). */
bool
runFig11(SuiteContext &ctx)
{
    const std::vector<SimCell> cells = gridCells();
    const auto start = SteadyClock::now();
    bool ok = ctx.sims.ensure(cells, ctx.jobs);
    const double harness_wall = millisSince(start);

    double serial_sum = 0;
    for (const SimCell &cell : cells)
        serial_sum += ctx.sims.at(cell).wallMs;

    // Soundness: every version of a workload computed the same value.
    for (const SimCell &cell : cells) {
        const CellOutcome &oc = ctx.sims.at(cell);
        const CellOutcome &vol =
            ctx.sims.at({cell.workload, Version::Volatile});
        if (!oc.failed && !vol.failed &&
            oc.stats.checksum != vol.stats.checksum) {
            std::fprintf(stderr, "OUTPUT MISMATCH on %s: version %s\n",
                         workloadName(cell.workload),
                         versionName(cell.version));
            ok = false;
        }
    }

    JsonWriter json;
    json.beginObject();
    emitHeader(json, ctx.jobs);
    json.kv("harnessWallMs", harness_wall);
    json.kv("serialSumMs", serial_sum);
    json.key("cells").beginArray();
    for (const SimCell &cell : cells) {
        const CellOutcome &oc = ctx.sims.at(cell);
        json.beginObject();
        json.kv("workload", workloadName(cell.workload));
        json.kv("version", versionName(cell.version));
        json.kv("wallMs", oc.wallMs);
        if (oc.failed)
            json.kv("error", oc.error);
        else
            emitStats(json, oc.stats);
        json.end();
    }
    json.end();
    json.end();

    const std::string path = writeJson(json, ctx, "BENCH_fig11.json");
    if (path.empty())
        return false;

    printFig11(ctx.sims);
    printFig13(ctx.sims);
    printFig15(ctx.sims);
    ok = printTableIII(ctx.sims) && ok;
    printTableV(ctx.sims);
    std::printf("\nfig11 grid: %zu cells, wall %.0f ms "
                "(serial sum %.0f ms, %.2fx), %s\n",
                cells.size(), harness_wall, serial_sum,
                serial_sum / harness_wall, path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Microkernels: tight loops over single pointer operations, the
// host-hot paths the translation caches serve. Cycle counts and model
// counters are deterministic per (kernel, version, scale).
// ----------------------------------------------------------------------

struct MicroResult
{
    std::string kernel;
    Version version;
    RunStats stats;
    double wallMs = 0;
    std::string error = {};
};

Runtime::Config
microConfig(Version v)
{
    Runtime::Config cfg;
    cfg.version = v;
    cfg.seed = 0xB0;
    return cfg;
}

/** Chase one pointer ring end to end @p laps times. */
RunStats
microPtrChase(Version v, std::uint64_t nodes, std::uint64_t laps)
{
    Runtime rt(microConfig(v));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("micro", 64 << 20);

    struct Node
    {
        Ptr<Node> next;
        std::uint64_t value = 0;
    };
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    std::vector<Ptr<Node>> ring;
    for (std::uint64_t i = 0; i < nodes; ++i) {
        Ptr<Node> n = env.alloc<Node>();
        n.setField(&Node::value, i);
        ring.push_back(n);
    }
    for (std::uint64_t i = 0; i < nodes; ++i)
        ring[i].setPtrField(&Node::next, ring[(i + 1) % nodes]);

    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles begin = rt.machine().now();
    std::uint64_t sum = 0;
    Ptr<Node> p = ring[0];
    for (std::uint64_t i = 0; i < nodes * laps; ++i) {
        sum += p.field(&Node::value);
        p = p.ptrField(&Node::next);
    }
    return bench::detail::snapshot(rt, rt.machine().now() - begin, sum);
}

/** storeP churn: overwrite pointer slots with relative values. */
RunStats
microStorePChurn(Version v, std::uint64_t slots, std::uint64_t rounds)
{
    Runtime rt(microConfig(v));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("micro", 64 << 20);

    struct Node
    {
        Ptr<Node> next;
        std::uint64_t value = 0;
    };
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    std::vector<Ptr<Node>> cells;
    for (std::uint64_t i = 0; i < slots; ++i)
        cells.push_back(env.alloc<Node>());

    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles begin = rt.machine().now();
    for (std::uint64_t r = 0; r < rounds; ++r)
        for (std::uint64_t i = 0; i < slots; ++i)
            cells[i].setPtrField(&Node::next,
                                 cells[(i + r + 1) % slots]);
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < slots; ++i)
        sum += cells[i].ptrField(&Node::next).bits();
    return bench::detail::snapshot(rt, rt.machine().now() - begin, sum);
}

/** Hot ra2va: dereference the same few persistent objects. */
RunStats
microResolveHot(Version v, std::uint64_t objects, std::uint64_t reps)
{
    Runtime rt(microConfig(v));
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("micro", 64 << 20);

    struct Node
    {
        Ptr<Node> next;
        std::uint64_t value = 0;
    };
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    std::vector<Ptr<Node>> objs;
    for (std::uint64_t i = 0; i < objects; ++i) {
        Ptr<Node> n = env.alloc<Node>();
        n.setField(&Node::value, i * 3 + 1);
        objs.push_back(n);
    }

    rt.machine().resetAllStats();
    rt.resetCounters();
    const Cycles begin = rt.machine().now();
    std::uint64_t sum = 0;
    for (std::uint64_t r = 0; r < reps; ++r)
        for (std::uint64_t i = 0; i < objects; ++i)
            sum += objs[i].field(&Node::value);
    return bench::detail::snapshot(rt, rt.machine().now() - begin, sum);
}

bool
runMicro(SuiteContext &ctx)
{
    const std::uint64_t scale = benchScale();
    struct Kernel
    {
        const char *name;
        RunStats (*fn)(Version, std::uint64_t, std::uint64_t);
        std::uint64_t a;
        std::uint64_t b;
    };
    const Kernel kernels[] = {
        {"ptr_chase", microPtrChase, 1024, 64 / std::min<std::uint64_t>(scale, 64)},
        {"storep_churn", microStorePChurn, 512, 128 / std::min<std::uint64_t>(scale, 128)},
        {"resolve_hot", microResolveHot, 64, 2048 / std::min<std::uint64_t>(scale, 2048)},
    };

    std::vector<MicroResult> results;
    for (const Kernel &k : kernels)
        for (Version v : kAllVersions)
            results.push_back(MicroResult{k.name, v, {}, 0});

    const auto start = SteadyClock::now();
    const std::vector<CellOutcome> outcomes =
        runForked<RunStats>(results.size(), ctx.jobs, [&](std::size_t i) {
            const Kernel &k = kernels[i / 4];
            return k.fn(results[i].version, k.a, k.b);
        });
    bool ok = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        results[i].stats = outcomes[i].stats;
        results[i].wallMs = outcomes[i].wallMs;
        if (outcomes[i].failed) {
            results[i].error = outcomes[i].error;
            std::fprintf(stderr, "FAIL micro %s/%s: %s\n",
                         results[i].kernel.c_str(),
                         versionName(results[i].version),
                         outcomes[i].error);
            ok = false;
        }
    }
    const double harness_wall = millisSince(start);

    double serial_sum = 0;
    for (const MicroResult &r : results)
        serial_sum += r.wallMs;

    JsonWriter json;
    json.beginObject();
    emitHeader(json, ctx.jobs);
    json.kv("harnessWallMs", harness_wall);
    json.kv("serialSumMs", serial_sum);
    json.key("cells").beginArray();
    for (const MicroResult &r : results) {
        json.beginObject();
        json.kv("workload", r.kernel);
        json.kv("version", versionName(r.version));
        json.kv("wallMs", r.wallMs);
        if (!r.error.empty())
            json.kv("error", r.error);
        else
            emitStats(json, r.stats);
        json.end();
    }
    json.end();
    json.end();

    const std::string path = writeJson(json, ctx, "BENCH_micro.json");
    if (path.empty())
        return false;
    std::printf("micro: %zu cells, wall %.0f ms, %s\n", results.size(),
                harness_wall, path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Static-analysis section: the Fig 9 program interpreted under three
// check plans — fully dynamic, inference-pruned, and elision-pruned —
// with the plan statistics and elided-check counts alongside the
// simulated counters. Serial and in-process: the IR interpreter is
// deterministic on a fresh Runtime, and the three runs take
// milliseconds.
// ----------------------------------------------------------------------

struct StaticCell
{
    const char *variant;
    CheckPlan plan;
    std::uint64_t elided = 0;
};

bool
runStatic(SuiteContext &ctx)
{
    using namespace upr::ir;
    const std::uint64_t kNodes = 200;

    Module mod = parseModule(kFig9Source);
    const InferenceResult inf = inferPointerKinds(mod, true);
    FlowAnalysis flow(mod, inf);

    std::vector<StaticCell> cells;
    cells.push_back({"sw-dynamic", insertChecks(mod, nullptr), 0});
    cells.push_back({"sw-inferred", insertChecks(mod, &inf), 0});
    {
        StaticCell c{"sw-elided", insertChecks(mod, &inf), 0};
        c.elided = elideChecks(mod, flow, c.plan).elidedSites;
        cells.push_back(std::move(c));
    }

    const auto start = SteadyClock::now();
    JsonWriter json;
    json.beginObject();
    emitHeader(json, 1);
    json.key("cells").beginArray();

    bool ok = true;
    std::uint64_t checksum = 0;
    bool have_checksum = false;
    for (const StaticCell &cell : cells) {
        const auto t0 = SteadyClock::now();
        Runtime::Config cfg;
        cfg.version = Version::Sw;
        cfg.seed = 0xB0;
        Runtime rt(cfg);
        Interpreter::Config icfg;
        icfg.pool = rt.createPool("static", 32 << 20);
        Interpreter interp(rt, mod, cell.plan, icfg);

        rt.machine().resetAllStats();
        rt.resetCounters();
        const Cycles begin = rt.machine().now();
        const std::uint64_t result = interp.call("main", {kNodes});
        const RunStats st = bench::detail::snapshot(
            rt, rt.machine().now() - begin, result);

        if (!have_checksum) {
            checksum = result;
            have_checksum = true;
        } else if (result != checksum) {
            std::fprintf(stderr,
                         "OUTPUT MISMATCH on fig9: variant %s\n",
                         cell.variant);
            ok = false;
        }

        json.beginObject();
        json.kv("workload", "fig9");
        json.kv("version", cell.variant);
        json.kv("wallMs", millisSince(t0));
        emitStats(json, st);
        json.kv("staticTotalSites", cell.plan.totalSites);
        json.kv("staticRemainingSites", cell.plan.remainingSites);
        json.kv("staticRefinedSites", cell.plan.refinedSites);
        json.kv("staticElidedSites", cell.elided);
        json.kv("irInstructions", interp.instructionCount());
        json.kv("irDynamicChecks", interp.dynamicCheckCount());
        json.end();
    }

    // Persistency cell: the transactional round workload analysed by
    // the persistency-ordering abstract interpreter. Its proof and
    // diagnostic counts are exact functions of the module, so
    // bench_diff hard-gates them — a lattice change that silently
    // proves more (or less) must recapture the golden deliberately.
    {
        const auto t0 = SteadyClock::now();
        const txnir::Program p = txnir::compile(/*elide=*/true);
        json.beginObject();
        json.kv("workload", "txn-round");
        json.kv("version", "sw-persistency");
        json.kv("wallMs", millisSince(t0));
        json.kv("txStores", p.persistency.txStores);
        json.kv("logElided", p.persistency.logElided);
        json.kv("elidedFresh", p.persistency.elidedFresh);
        json.kv("elidedDominated", p.persistency.elidedDominated);
        json.kv("persistencyDiags", p.persistency.findingCount());
        json.end();
        if (p.persistency.diags.errorCount() != 0) {
            std::fprintf(stderr,
                         "FAIL static bench: txn-round has "
                         "persistency errors:\n%s",
                         p.persistency.diags.render().c_str());
            ok = false;
        }
    }
    json.end();
    json.end();

    const std::string path = writeJson(json, ctx, "BENCH_static.json");
    if (path.empty())
        return false;
    std::printf("static: %zu plans, wall %.0f ms, %s\n", cells.size(),
                millisSince(start), path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Fault section: the hostile-media corruption sweep, one cell per
// retention mode. Every count is a deterministic function of the seed
// (the persistence-event stream, the retention coin flips, and the
// fault RNG are all seed-driven), so bench_diff compares the cells as
// hard-error keys: a classification shifting from `repaired` to
// `quarantined` — or worse, to `silent` — is model drift.
// ----------------------------------------------------------------------

namespace faultbench
{

using Tree = RbTree<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kSetupKeys = 8;

struct Op
{
    bool erase;
    std::uint64_t key;
    std::uint64_t value;
};

const std::vector<Op> &
ops()
{
    static const std::vector<Op> kOps = {
        {false, 100, 1000},
        {false, 3, 333},
        {true, 5, 0},
        {false, 101, 1010},
    };
    return kOps;
}

std::map<std::uint64_t, std::uint64_t>
referenceState(std::size_t n)
{
    std::map<std::uint64_t, std::uint64_t> m;
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        m[i] = i * 10;
    for (std::size_t i = 0; i < n && i < ops().size(); ++i) {
        if (ops()[i].erase)
            m.erase(ops()[i].key);
        else
            m[ops()[i].key] = ops()[i].value;
    }
    return m;
}

Runtime::Config
config()
{
    Runtime::Config cfg;
    cfg.version = Version::Hw;
    cfg.seed = 1234;
    return cfg;
}

void
workload(CrashInjector &injector, std::size_t &committed)
{
    committed = 0;
    Runtime rt(config());
    RuntimeScope scope(rt);
    const PoolId pool = rt.createPool("sweep", 1 << 20);
    MemEnv env = MemEnv::persistentEnv(rt, pool);
    KvStore<Tree> store(env);
    rt.pools().pool(pool).setRootOff(static_cast<PoolOffset>(
        PtrRepr::offsetOf(store.index().header().bits())));
    for (std::uint64_t i = 0; i < kSetupKeys; ++i)
        store.set(i, i * 10);

    injector.attach(rt.pools().pool(pool).backing());
    for (const Op &op : ops()) {
        rt.beginTxn(pool);
        if (op.erase)
            store.index().erase(op.key);
        else
            store.set(op.key, op.value);
        rt.commitTxn();
        ++committed;
    }
}

bool
contentValid(const std::vector<std::uint8_t> &image,
             std::size_t committed)
{
    try {
        Backing b;
        b.assign(image);
        Runtime rt(config());
        RuntimeScope scope(rt);
        const PoolId id = rt.pools().adoptImage(std::move(b), "v");

        const ArenaReport arena =
            rt.pools().allocator(id).inspectArena();
        if (!arena.tagsValid || !arena.freeListValid ||
            !arena.usedBytesMatch)
            return false;

        const PoolOffset root = rt.pools().pool(id).rootOff();
        if (root == 0)
            return false;
        MemEnv env = MemEnv::persistentEnv(rt, id);
        Tree tree(env, Ptr<Tree::Header>::fromBits(
                           PtrRepr::makeRelative(id, root)));
        tree.validate();
        std::map<std::uint64_t, std::uint64_t> actual;
        tree.forEach([&](std::uint64_t k, std::uint64_t v) {
            actual.emplace(k, v);
        });
        return actual == referenceState(committed) ||
               actual == referenceState(committed + 1);
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace faultbench

bool
runFault(SuiteContext &ctx)
{
    // Sweeps spew (expected) torn-log warnings; keep the bench output
    // readable.
    setLogSink(+[](LogLevel, const std::string &) {});

    const CrashMode kModes[] = {
        CrashMode::DiscardUnfenced, CrashMode::RetainRandom,
        CrashMode::RetainEpoch, CrashMode::RetainBoundedStale};

    const auto start = SteadyClock::now();
    JsonWriter json;
    json.beginObject();
    emitHeader(json, 1);
    json.key("cells").beginArray();

    bool ok = true;
    std::size_t committed = 0;
    for (CrashMode mode : kModes) {
        FaultSweepConfig cfg;
        cfg.mode = mode;
        cfg.seed = 99;
        cfg.pointStride = 61;
        const auto t0 = SteadyClock::now();
        const FaultSweepResult r = faultSweep(
            [&committed](CrashInjector &inj) {
                faultbench::workload(inj, committed);
            },
            [&committed](const std::vector<std::uint8_t> &image,
                         std::uint64_t) {
                return faultbench::contentValid(image, committed);
            },
            cfg);

        if (r.silent != 0 || r.containment != 0) {
            std::fprintf(stderr,
                         "FAIL fault sweep (%s): %llu silent, %llu "
                         "containment failures\n",
                         crashModeName(mode),
                         (unsigned long long)r.silent,
                         (unsigned long long)r.containment);
            ok = false;
        }

        json.beginObject();
        json.kv("workload", "fault_sweep");
        json.kv("version", crashModeName(mode));
        json.kv("wallMs", millisSince(t0));
        json.kv("crashPointsSampled", r.crashPointsSampled);
        json.kv("injections", r.injections);
        json.kv("benign", r.benign);
        json.kv("repaired", r.repaired);
        json.kv("quarantined", r.quarantined);
        json.kv("rejected", r.rejected);
        json.kv("noEffect", r.noEffect);
        json.kv("silent", r.silent);
        json.kv("containment", r.containment);
        json.end();
    }
    json.end();
    json.end();
    setLogSink(nullptr);

    const std::string path = writeJson(json, ctx, "BENCH_fault.json");
    if (path.empty())
        return false;
    std::printf("fault: %zu modes, wall %.0f ms, %s\n",
                sizeof(kModes) / sizeof(kModes[0]),
                millisSince(start), path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Exec section: the compiler-path workloads run through the
// direct-threaded FastExecutor in both tiers. Model is the simulated
// machine (bit-exact to the Interpreter); Native skips the timing
// model and is expected to be >= 10x faster on at least one
// workload. The harness itself enforces the cross-tier contract —
// identical checksum, instruction count and dynamic-check count per
// workload — and scripts/bench_diff.py re-checks it between runs.
// Serial and in-process: the emitted counters are plan functions of
// the workload, independent of branch-predictor salt order.
// ----------------------------------------------------------------------

bool
runExec(SuiteContext &ctx)
{
    const std::uint64_t scale = benchScale();
    const std::vector<ExecWorkload> workloads = execWorkloads(scale);
    const ExecTier kTiers[] = {ExecTier::Model, ExecTier::Native};

    const auto start = SteadyClock::now();
    JsonWriter json;
    json.beginObject();
    emitHeader(json, 1);
    json.key("cells").beginArray();

    bool ok = true;
    for (const ExecWorkload &w : workloads) {
        ExecProgram prog;
        try {
            prog = compileExecProgram(w.source);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "FAIL exec %s: compile: %s\n",
                         w.name, e.what());
            ok = false;
            continue;
        }

        ExecRun runs[2];
        double wall[2] = {0, 0};
        bool ran[2] = {false, false};
        for (int t = 0; t < 2; ++t) {
            const auto t0 = SteadyClock::now();
            try {
                runs[t] = runExecTier(prog, kTiers[t], w.args);
                ran[t] = true;
            } catch (const std::exception &e) {
                std::fprintf(stderr, "FAIL exec %s/%s: %s\n", w.name,
                             execTierName(kTiers[t]), e.what());
                ok = false;
            }
            wall[t] = millisSince(t0);

            json.beginObject();
            json.kv("workload", w.name);
            json.kv("version", execTierName(kTiers[t]));
            json.kv("wallMs", wall[t]);
            if (ran[t]) {
                json.kv("checksum", runs[t].result);
                json.kv("dynamicChecks", runs[t].dynamicChecks);
                json.kv("irInstructions", runs[t].instructions);
                json.kv("loweredSites", runs[t].lowered.sites);
                json.kv("retainedGuards",
                        runs[t].lowered.retainedGuards);
                json.kv("elidedGuards", runs[t].lowered.elidedGuards);
                json.kv("elidedSites", prog.elidedSites);
                json.kv("fusedPairs", runs[t].lowered.fusedPairs);
            } else {
                json.kv("error", "tier run failed");
            }
            json.end();
        }

        if (ran[0] && ran[1]) {
            if (runs[0].result != runs[1].result ||
                runs[0].instructions != runs[1].instructions ||
                runs[0].dynamicChecks != runs[1].dynamicChecks) {
                std::fprintf(
                    stderr,
                    "TIER MISMATCH on %s: model "
                    "(%llu, %llu insts, %llu checks) vs native "
                    "(%llu, %llu insts, %llu checks)\n",
                    w.name, (unsigned long long)runs[0].result,
                    (unsigned long long)runs[0].instructions,
                    (unsigned long long)runs[0].dynamicChecks,
                    (unsigned long long)runs[1].result,
                    (unsigned long long)runs[1].instructions,
                    (unsigned long long)runs[1].dynamicChecks);
                ok = false;
            }
            std::printf("exec %-10s model %8.1f ms, native %7.1f ms "
                        "(%.1fx), %llu/%llu guards retained\n",
                        w.name, wall[0], wall[1],
                        wall[1] > 0 ? wall[0] / wall[1] : 0.0,
                        (unsigned long long)
                            runs[0].lowered.retainedGuards,
                        (unsigned long long)runs[0].lowered.sites);
        }
    }
    json.end();
    json.end();

    const std::string path = writeJson(json, ctx, "BENCH_exec.json");
    if (path.empty())
        return false;
    std::printf("exec: %zu workloads x 2 tiers, wall %.0f ms, %s\n",
                workloads.size(), millisSince(start), path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Txn section: the same write-heavy transactional workload committed
// through the undo engine, the redo engine, and redo group commit.
// The flush/fence tallies come from the "txn" metrics group and are
// exact functions of the fence-accounting model, so bench_diff treats
// them as hard-error keys; commit latency is real wall time and is
// reported (like wallMs) for information only.
// ----------------------------------------------------------------------

namespace txnbench
{

struct TxnCell
{
    const char *variant;
    EngineKind engine;
    unsigned group;
};

} // namespace txnbench

bool
runTxn(SuiteContext &ctx)
{
    const txnbench::TxnCell cells[] = {
        {"undo", EngineKind::Undo, 1},
        {"redo", EngineKind::Redo, 1},
        {"redo-group4", EngineKind::Redo, 4},
    };
    constexpr std::uint64_t kTxns = 96;
    constexpr std::uint64_t kWritesPerTxn = 4;

    const auto start = SteadyClock::now();
    JsonWriter json;
    json.beginObject();
    emitHeader(json, 1);
    json.key("cells").beginArray();

    bool ok = true;
    std::map<std::string, std::uint64_t> fences_by_variant;
    for (const txnbench::TxnCell &cell : cells) {
        const auto t0 = SteadyClock::now();
        Runtime rt(faultbench::config());
        RuntimeScope scope(rt);
        const PoolId pool =
            rt.createPool("txn", 1 << 20, cell.engine);
        rt.setGroupCommitSize(cell.group);
        Pool &p = rt.pools().pool(pool);
        const Bytes base = p.header().arenaStart + 64;

        // Snapshot after pool creation: formatting the fresh log
        // control block costs one flush+fence outside the model.
        const obs::MetricsSnapshot before =
            obs::MetricsRegistry::instance().snapshot();

        for (std::uint64_t t = 0; t < kTxns; ++t) {
            rt.beginTxn(pool);
            for (std::uint64_t w = 0; w < kWritesPerTxn; ++w) {
                const std::uint64_t n = t * kWritesPerTxn + w;
                const std::uint64_t value = n * 2654435761u;
                // 64-byte spacing: distinct journal runs, one undo
                // record each; wraps over a 16 KiB window.
                p.backing().write(base + 64 * (n % 256), &value,
                                  sizeof(value));
            }
            rt.commitTxn();
        }
        rt.flushGroup(); // drain a trailing partial batch

        const obs::MetricsSnapshot d =
            obs::MetricsRegistry::instance().snapshot().minus(before);
        const auto get = [&d](const char *name) -> std::uint64_t {
            const auto it = d.counters.find(name);
            return it == d.counters.end() ? 0 : it->second;
        };
        const std::uint64_t commits =
            get("txn.undoCommits") + get("txn.redoCommits");
        const std::uint64_t fences =
            get("txn.undoFences") + get("txn.redoFences");
        const std::uint64_t flushes =
            get("txn.undoFlushes") + get("txn.redoFlushes");
        fences_by_variant[cell.variant] = fences;

        if (commits != kTxns) {
            std::fprintf(stderr,
                         "FAIL txn bench (%s): %llu commits counted, "
                         "%llu expected\n",
                         cell.variant, (unsigned long long)commits,
                         (unsigned long long)kTxns);
            ok = false;
        }

        json.beginObject();
        json.kv("workload", "txn");
        json.kv("version", cell.variant);
        json.kv("wallMs", millisSince(t0));
        json.kv("txns", kTxns);
        json.kv("writesPerTxn", kWritesPerTxn);
        json.kv("commits", commits);
        json.kv("fences", fences);
        json.kv("flushes", flushes);
        json.kv("groupBatches", get("txn.groupBatches"));
        json.kv("groupTxns", get("txn.groupTxns"));
        emitHistSummary(json, "commitNs",
                        summarize(rt.txnCommitHistogram()));
        json.end();
    }

    // IR cells: the transactional round workload with and without
    // the persistency analysis's logging-elision proofs, on both
    // engines. Each cell runs through the Interpreter and both
    // FastExecutor tiers and the engine counters (and the committed
    // pool image) must be bit-identical across the three — elision is
    // a property of the plan, not of who executes it. The measured
    // win: undo-ir-elided issues fewer flushes than undo-ir, and
    // redo-ir-elided journals fewer bytes than redo-ir, while the
    // committed user bytes stay byte-identical to the unelided run.
    {
        const txnir::Program plain = txnir::compile(/*elide=*/false);
        const txnir::Program elided = txnir::compile(/*elide=*/true);
        struct IrCell
        {
            const char *variant;
            EngineKind engine;
            const txnir::Program *prog;
        };
        const IrCell ircells[] = {
            {"undo-ir", EngineKind::Undo, &plain},
            {"undo-ir-elided", EngineKind::Undo, &elided},
            {"redo-ir", EngineKind::Redo, &plain},
            {"redo-ir-elided", EngineKind::Redo, &elided},
        };
        static const char *const kTxnCounters[] = {
            "txn.undoCommits",     "txn.redoCommits",
            "txn.undoFlushes",     "txn.redoFlushes",
            "txn.undoFences",      "txn.redoFences",
            "txn.undoElidedWrites", "txn.redoElidedRuns",
            "txn.redoJournalEntries", "txn.redoJournalBytes",
        };
        std::map<std::string, std::map<std::string, std::uint64_t>>
            by_variant;
        std::map<EngineKind, std::vector<std::uint8_t>> user_bytes;
        for (const IrCell &cell : ircells) {
            const auto t0 = SteadyClock::now();
            std::map<std::string, std::uint64_t> counters;
            std::vector<std::uint8_t> image0;
            for (txnir::Tier tier :
                 {txnir::Tier::Interp, txnir::Tier::Model,
                  txnir::Tier::Native}) {
                const obs::MetricsSnapshot before =
                    obs::MetricsRegistry::instance().snapshot();
                std::vector<std::uint8_t> image;
                const std::vector<std::uint64_t> bits = txnir::run(
                    *cell.prog, cell.engine, tier, nullptr, nullptr,
                    &image);
                const obs::MetricsSnapshot d =
                    obs::MetricsRegistry::instance()
                        .snapshot()
                        .minus(before);
                std::map<std::string, std::uint64_t> cur;
                for (const char *name : kTxnCounters) {
                    const auto it = d.counters.find(name);
                    cur[name] =
                        it == d.counters.end() ? 0 : it->second;
                }
                if (tier == txnir::Tier::Interp) {
                    counters = std::move(cur);
                    image0 = std::move(image);
                    // The committed user data, for the plain-vs-
                    // elided comparison below.
                    std::vector<std::uint8_t> cells_bytes;
                    for (const PoolOffset o : txnir::cellOffsets(bits))
                        cells_bytes.insert(cells_bytes.end(),
                                           image0.begin() + o,
                                           image0.begin() + o + 64);
                    if (user_bytes.count(cell.engine) &&
                        user_bytes[cell.engine] != cells_bytes) {
                        std::fprintf(stderr,
                                     "FAIL txn bench (%s): elision "
                                     "changed the committed user "
                                     "bytes\n",
                                     cell.variant);
                        ok = false;
                    }
                    user_bytes[cell.engine] = std::move(cells_bytes);
                } else if (cur != counters || image != image0) {
                    std::fprintf(stderr,
                                 "TIER MISMATCH on %s: engine "
                                 "counters or pool image diverge "
                                 "from the Interpreter run\n",
                                 cell.variant);
                    ok = false;
                }
            }
            by_variant[cell.variant] = counters;
            const auto get = [&counters](const char *n) {
                return counters.at(n);
            };
            json.beginObject();
            json.kv("workload", "txn-ir");
            json.kv("version", cell.variant);
            json.kv("wallMs", millisSince(t0));
            json.kv("txns", get("txn.undoCommits") +
                                get("txn.redoCommits"));
            json.kv("commits", get("txn.undoCommits") +
                                   get("txn.redoCommits"));
            json.kv("fences",
                    get("txn.undoFences") + get("txn.redoFences"));
            json.kv("flushes",
                    get("txn.undoFlushes") + get("txn.redoFlushes"));
            json.kv("undoElidedWrites", get("txn.undoElidedWrites"));
            json.kv("redoElidedRuns", get("txn.redoElidedRuns"));
            json.kv("redoJournalBytes", get("txn.redoJournalBytes"));
            json.kv("logElided", cell.prog->persistency.logElided);
            json.end();
        }

        // The measured elision win, gated hard: each engine's cost
        // shrinks in its own currency (undo: flushes; redo: journaled
        // bytes).
        const auto of = [&by_variant](const char *v, const char *c) {
            return by_variant.at(v).at(c);
        };
        if (!(of("undo-ir-elided", "txn.undoFlushes") <
              of("undo-ir", "txn.undoFlushes"))) {
            std::fprintf(stderr,
                         "FAIL txn bench: elision did not reduce "
                         "undo flushes (%llu vs %llu)\n",
                         (unsigned long long)of("undo-ir-elided",
                                                "txn.undoFlushes"),
                         (unsigned long long)of("undo-ir",
                                                "txn.undoFlushes"));
            ok = false;
        }
        if (!(of("redo-ir-elided", "txn.redoJournalBytes") <
              of("redo-ir", "txn.redoJournalBytes"))) {
            std::fprintf(stderr,
                         "FAIL txn bench: elision did not reduce "
                         "redo journal bytes (%llu vs %llu)\n",
                         (unsigned long long)of(
                             "redo-ir-elided",
                             "txn.redoJournalBytes"),
                         (unsigned long long)of(
                             "redo-ir", "txn.redoJournalBytes"));
            ok = false;
        }
    }
    json.end();
    json.end();

    // The headline invariant of the redo design: per committed
    // transaction, redo fences strictly less than undo, and group
    // commit strictly less than solo redo.
    if (!(fences_by_variant["redo"] < fences_by_variant["undo"] &&
          fences_by_variant["redo-group4"] <
              fences_by_variant["redo"])) {
        std::fprintf(stderr,
                     "FAIL txn bench: fence ordering violated "
                     "(undo=%llu redo=%llu group4=%llu)\n",
                     (unsigned long long)fences_by_variant["undo"],
                     (unsigned long long)fences_by_variant["redo"],
                     (unsigned long long)
                         fences_by_variant["redo-group4"]);
        ok = false;
    }

    const std::string path = writeJson(json, ctx, "BENCH_txn.json");
    if (path.empty())
        return false;
    std::printf("txn: %zu engines + 4 ir cells, wall %.0f ms, %s\n",
                sizeof(cells) / sizeof(cells[0]), millisSince(start),
                path.c_str());
    return ok;
}

// ----------------------------------------------------------------------
// Concurrent section: the sharded multi-threaded KV store — T worker
// threads, one shard-owned Runtime each — over YCSB presets at
// T in {1, 2, 4}. Every reported counter depends only on per-shard
// sequential histories (never on thread timing), so bench_diff
// hard-gates them all even though real threads run the cells. The
// T=1 cell is additionally checked in-process against a plain
// single-Runtime reference: any drift fails the cell, proving the
// sharding machinery costs nothing in model terms at one thread.
// Cells still run in forked children (pristine branch-salt state);
// the workers live and die inside the child, so the parent stays
// single-threaded for the next fork.
// ----------------------------------------------------------------------

namespace concbench
{

/** Pipe-safe record of one (preset, threads) cell. */
struct ConcurrentStats
{
    std::uint64_t threads = 0;
    std::uint64_t gets = 0;
    std::uint64_t getHits = 0;
    std::uint64_t sets = 0;
    std::uint64_t checksum = 0;
    std::uint64_t maxCycles = 0;
    std::uint64_t sumCycles = 0;
    std::uint64_t commits = 0;
    HistSummary commitNs = {};
};

WorkloadSpec
spec(char preset)
{
    WorkloadSpec s = ycsbPreset(preset);
    s.recordCount = 10'000 / benchScale();
    s.operationCount = 100'000 / benchScale();
    return s;
}

ShardedRuntime::Config
fleetConfig(unsigned threads)
{
    ShardedRuntime::Config cfg;
    cfg.shards = threads;
    cfg.runtime.version = Version::Hw;
    cfg.runtime.seed = 0xC0;
    cfg.poolName = "bench";
    cfg.poolSize = 32ULL << 20;
    cfg.engine = EngineKind::Undo;
    return cfg;
}

ConcurrentStats
runCell(char preset, unsigned threads)
{
    const YcsbWorkload workload(spec(preset));
    ShardedRuntime fleet(fleetConfig(threads));
    ConcurrentKvStore store(fleet);
    const KvConcurrentResult res = store.run(workload);

    ConcurrentStats st;
    st.threads = threads;
    st.gets = res.gets;
    st.getHits = res.getHits;
    st.sets = res.sets;
    st.checksum = res.checksum;
    st.maxCycles = res.maxCycles;
    st.sumCycles = res.sumCycles;

    // Fleet-wide commit latency: the per-shard histograms merged.
    obs::HistogramData commit;
    for (unsigned s = 0; s < threads; ++s)
        commit.merge(fleet.runtime(s).txnCommitHistogram().data());
    st.commits = commit.count;
    st.commitNs.count = commit.count;
    st.commitNs.p50 = commit.percentile(50);
    st.commitNs.p90 = commit.percentile(90);
    st.commitNs.p99 = commit.percentile(99);
    st.commitNs.max = commit.max;

    if (threads == 1) {
        // Zero-drift gate: one plain Runtime, one HashMap, the same
        // per-operation transactions and checksum fold — no fleet
        // machinery at all.
        KvRunResult ref;
        Runtime rt(fleetConfig(1).runtime);
        RuntimeScope scope(rt);
        const PoolId pool =
            rt.createPool("ref", 32ULL << 20, EngineKind::Undo);
        HashMap<std::uint64_t, std::uint64_t> table(
            MemEnv::persistentEnv(rt, pool));
        table.reserve(workload.loadOps().size());
        for (const KvOp &op : workload.loadOps()) {
            rt.beginTxn(pool);
            table.insert(op.key, op.value);
            rt.commitTxn();
        }
        for (const KvOp &op : workload.runOps()) {
            if (op.kind == KvOp::Kind::Get) {
                ++ref.gets;
                if (auto v = table.find(op.key)) {
                    ++ref.getHits;
                    ref.checksum ^= *v;
                    ref.checksum =
                        (ref.checksum << 1) | (ref.checksum >> 63);
                }
            } else {
                ++ref.sets;
                rt.beginTxn(pool);
                table.insert(op.key, op.value);
                rt.commitTxn();
            }
        }
        if (ref.gets != st.gets || ref.getHits != st.getHits ||
            ref.sets != st.sets || ref.checksum != st.checksum) {
            throw std::runtime_error(
                "T=1 counter drift vs the single-runtime reference");
        }
    }
    return st;
}

} // namespace concbench

bool
runConcurrent(SuiteContext &ctx)
{
    struct CCell
    {
        char preset;
        unsigned threads;
    };
    std::vector<CCell> cells;
    for (const char p : {'a', 'b', 'f'})
        for (const unsigned t : {1u, 2u, 4u})
            cells.push_back(CCell{p, t});

    const auto start = SteadyClock::now();
    const auto outcomes = runForked<concbench::ConcurrentStats>(
        cells.size(), ctx.jobs, [&](std::size_t i) {
            return concbench::runCell(cells[i].preset,
                                      cells[i].threads);
        });
    const double harness_wall = millisSince(start);

    double serial_sum = 0;
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        serial_sum += outcomes[i].wallMs;
        if (outcomes[i].failed) {
            std::fprintf(stderr, "FAIL concurrent ycsb_%c/t%u: %s\n",
                         cells[i].preset, cells[i].threads,
                         outcomes[i].error);
            ok = false;
        }
    }

    JsonWriter json;
    json.beginObject();
    emitHeader(json, ctx.jobs);
    json.kv("harnessWallMs", harness_wall);
    json.kv("serialSumMs", serial_sum);
    json.key("cells").beginArray();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const concbench::ConcurrentStats &st = outcomes[i].stats;
        json.beginObject();
        json.kv("workload", std::string("ycsb_") + cells[i].preset);
        json.kv("version", "t" + std::to_string(cells[i].threads));
        json.kv("wallMs", outcomes[i].wallMs);
        if (outcomes[i].failed) {
            json.kv("error", outcomes[i].error);
        } else {
            json.kv("threads", st.threads);
            json.kv("gets", st.gets);
            json.kv("getHits", st.getHits);
            json.kv("sets", st.sets);
            json.kv("checksum", st.checksum);
            json.kv("maxCycles", st.maxCycles);
            json.kv("sumCycles", st.sumCycles);
            json.kv("commits", st.commits);
            emitHistSummary(json, "commitNs", st.commitNs);
        }
        json.end();
    }
    json.end();
    json.end();

    const std::string path = writeJson(json, ctx, "BENCH_concurrent.json");
    if (path.empty())
        return false;
    std::printf("concurrent: %zu cells, wall %.0f ms "
                "(serial sum %.0f ms), %s\n",
                cells.size(), harness_wall, serial_sum, path.c_str());
    return ok;
}

/** One named suite of the registry. */
struct Suite
{
    const char *name;
    bool byDefault;
    bool (*run)(SuiteContext &);
};

/**
 * Every suite, in the order they run. The suites that fork a child per
 * cell come first: the serial ones (static onwards) simulate in the
 * harness process itself, which moves the branch-salt state that every
 * later fork inherits. fault, txn, exec and concurrent are opt-in:
 * they register lazy metrics groups ("fault", "txn", "exec", shard
 * prefixes) that default runs must leave unregistered so the default
 * goldens and metrics dumps stay bit-identical.
 */
const Suite kSuites[] = {
    {"fig11", true, runFig11},
    {"micro", true, runMicro},
    {"paper", false, runPaperSuite},
    {"concurrent", false, runConcurrent},
    {"static", true, runStatic},
    {"fault", false, runFault},
    {"txn", false, runTxn},
    {"exec", false, runExec},
};

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--quick] [--jobs N] [--out DIR] "
                 "[SUITE...]\nsuites:",
                 argv0);
    for (const Suite &s : kSuites)
        std::fprintf(stderr, " %s%s", s.name, s.byDefault ? "*" : "");
    std::fprintf(stderr, " (* = run when none is named)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    SuiteContext ctx;
    ctx.jobs = std::max(1u, std::thread::hardware_concurrency());
    ctx.outDir = ".";
    bool selected[std::size(kSuites)] = {};
    bool any_selected = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "--quick")) {
            // Smoke mode: shrink workloads unless the caller already
            // pinned a scale explicitly.
            setenv("UPR_BENCH_SCALE", "100", /*overwrite=*/0);
        } else if (!std::strcmp(arg, "--jobs") && i + 1 < argc) {
            const long v = std::atol(argv[++i]);
            if (v >= 1)
                ctx.jobs = static_cast<unsigned>(v);
        } else if (!std::strcmp(arg, "--out") && i + 1 < argc) {
            ctx.outDir = argv[++i];
        } else {
            std::size_t s = 0;
            while (s < std::size(kSuites) &&
                   std::strcmp(arg, kSuites[s].name) != 0)
                ++s;
            if (s == std::size(kSuites))
                return usage(argv[0]);
            selected[s] = any_selected = true;
        }
    }

    printConfigBanner();
    std::printf("# harness: %u worker process(es), git %s\n", ctx.jobs,
                UPR_GIT_REV);

    bool ok = true;
    for (std::size_t s = 0; s < std::size(kSuites); ++s) {
        if (any_selected ? !selected[s] : !kSuites[s].byDefault)
            continue;
        std::printf("\n== %s ==\n", kSuites[s].name);
        ok = kSuites[s].run(ctx) && ok;
    }

    // With UPR_OBS_TRACE set, dump the harness process's event ring
    // (the serial suites and any in-process setup; forked cells have
    // their own rings that die with them).
    if (obs::traceEnabled()) {
        const std::string path = ctx.outDir + "/BENCH_trace.json";
        std::ofstream trace(path);
        if (trace) {
            obs::traceRing().exportChromeTrace(trace);
            std::printf("trace: %llu events, %s\n",
                        (unsigned long long)
                            obs::traceRing().appended(),
                        path.c_str());
        } else {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            ok = false;
        }
    }
    return ok ? 0 : 1;
}

/**
 * @file
 * ir_native: the seven compiler/demo_programs.hh programs, each
 * parsed, analysed (check insertion + uprlint elision) and lowered
 * once during setup, then called on the Native FastExecutor tier.
 *
 * The call schedule is a seeded shuffle of kSchedule (program, args)
 * entries with seed-drawn arguments, replayed cyclically. Every cycle
 * starts on fresh runtimes, and a program's runtime is replaced
 * (outside the timed calls) whenever its pool lacks room for the next
 * call's allocations — both decided by the schedule alone, so a call
 * at schedule index i always sees the same pool state and returns the
 * same value. The oracle replays the executed schedule prefix through
 * the Interpreter after the timed phase.
 */

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "arch/trace.hh"
#include "bench.hh"
#include "common/random.hh"
#include "compiler/analysis/abstract_interp.hh"
#include "compiler/analysis/elision.hh"
#include "compiler/demo_programs.hh"
#include "compiler/exec_fast.hh"
#include "compiler/exec_lower.hh"
#include "compiler/interpreter.hh"
#include "compiler/ir_parser.hh"
#include "compiler/type_inference.hh"
#include "core/ptr.hh"

namespace perfbench
{

namespace
{

using namespace upr;

constexpr std::size_t kSchedule = 1024;
constexpr Bytes kPoolBytes = 64ULL << 20;
/** Calls (in schedule order) whose counters are reported. */
constexpr std::uint64_t kWindow = 256;
constexpr std::uint64_t kFuel = 1ULL << 62;
/** Calls between CPU rotation steps. */
constexpr std::uint64_t kRotate = 128;

/** One demo program and how its calls are drawn. */
struct ProgramSpec
{
    const char *name;
    const char *source;
    /** Reads dominate its main loop (else: stores do). */
    bool readMostly;
    /** Entries in the kSchedule-long call schedule. */
    std::size_t entries;
    /** Draw the @main arguments. */
    std::vector<std::uint64_t> (*args)(Rng &);
    /** Upper bound of the pool bytes one call allocates. */
    Bytes (*allocBytes)(const std::vector<std::uint64_t> &);
};

std::uint64_t
draw(Rng &rng, std::uint64_t lo, std::uint64_t hi)
{
    return lo + rng.next() % (hi - lo + 1);
}

// Argument ranges put each program's mean Native call near 150 us on
// a 4-core x86 host. stream runs one lap: each call first-touches a
// fresh 4 MiB array, which alone costs milliseconds, so it gets fewer
// entries — still over 1% of the calls, so the p99s sit inside its
// narrow latency band rather than on its edge.
const ProgramSpec kPrograms[] = {
    {"fig9", ir::kFig9Source, false, 168,
     [](Rng &r) { return std::vector<std::uint64_t>{draw(r, 300, 800)}; },
     [](const std::vector<std::uint64_t> &a) -> Bytes {
         return 64 * (a[0] + 1);
     }},
    {"ptr_chase", ir::kPtrChaseSource, true, 168,
     [](Rng &r) {
         return std::vector<std::uint64_t>{draw(r, 128, 512),
                                           draw(r, 6, 24)};
     },
     [](const std::vector<std::uint64_t> &a) -> Bytes {
         return 64 * (a[0] + 1);
     }},
    {"sweep", ir::kSweepSource, false, 168,
     [](Rng &r) {
         return std::vector<std::uint64_t>{draw(r, 800, 2400)};
     },
     [](const std::vector<std::uint64_t> &) -> Bytes { return 256; }},
    {"publish", ir::kPublishSource, false, 168,
     [](Rng &r) {
         return std::vector<std::uint64_t>{draw(r, 800, 2300)};
     },
     [](const std::vector<std::uint64_t> &) -> Bytes { return 256; }},
    {"stream", ir::kStreamSource, false, 16,
     [](Rng &) { return std::vector<std::uint64_t>{1}; },
     [](const std::vector<std::uint64_t> &) -> Bytes {
         return (4ULL << 20) + 4096;
     }},
    {"scan", ir::kScanSource, true, 168,
     [](Rng &r) {
         return std::vector<std::uint64_t>{draw(r, 350, 1000)};
     },
     [](const std::vector<std::uint64_t> &) -> Bytes { return 256; }},
    {"conflict", ir::kConflictSource, true, 168,
     [](Rng &r) {
         return std::vector<std::uint64_t>{draw(r, 200, 550)};
     },
     [](const std::vector<std::uint64_t> &) -> Bytes {
         return (4ULL << 20) + 4096;
     }},
};
constexpr std::size_t kNumPrograms = std::size(kPrograms);

/** A program compiled to its final (elided) check plan and lowered. */
struct Compiled
{
    ir::Module mod;
    CheckPlan plan;
    LoweredModule lowered;
};

struct Call
{
    std::size_t program;
    std::vector<std::uint64_t> args;
};

/** One program's live runtime, pool and executor. */
struct Slot
{
    std::unique_ptr<Runtime> rt;
    PoolId pool = 0;
    std::unique_ptr<FastExecutor> fast;
    std::unique_ptr<Interpreter> interp;
};

Runtime::Config
runtimeConfig()
{
    Runtime::Config cfg;
    cfg.version = Version::Sw;
    cfg.seed = 0xB0;
    cfg.execTier = ExecTier::Native;
    return cfg;
}

/** The lowered programs plus the seeded call schedule. */
struct Programs
{
    std::vector<Compiled> compiled;
    std::vector<Call> schedule;
    double lowerMs = 0;

    explicit Programs(std::uint64_t seed)
    {
        compiled.resize(kNumPrograms);
        for (std::size_t p = 0; p < kNumPrograms; ++p) {
            Compiled &c = compiled[p];
            c.mod = ir::parseModule(kPrograms[p].source);
            const InferenceResult inf = inferPointerKinds(c.mod, true);
            FlowAnalysis flow(c.mod, inf);
            c.plan = insertChecks(c.mod, &inf);
            elideChecks(c.mod, flow, c.plan);
            const auto t0 = Clock::now();
            c.lowered = lowerModule(c.mod, c.plan, Version::Sw);
            lowerMs += secondsSince(t0) * 1e3;
        }
        // Fixed entries per program, so every seed has the same mix;
        // the seed shuffles the order and draws the arguments.
        for (std::size_t p = 0; p < kNumPrograms; ++p) {
            for (std::size_t k = 0; k < kPrograms[p].entries; ++k)
                schedule.push_back(Call{p, {}});
        }
        if (schedule.size() != kSchedule)
            throw std::logic_error("ir_native: schedule entries != kSchedule");
        Rng rng(seed);
        for (std::size_t i = schedule.size() - 1; i > 0; --i)
            std::swap(schedule[i], schedule[rng.next() % (i + 1)]);
        for (Call &c : schedule)
            c.args = kPrograms[c.program].args(rng);
    }
};

/**
 * Calls the schedule on one tier. The pool-recycling policy lives
 * here so the Native run and the Interpreter replay share it.
 */
class Executor
{
  public:
    /** Opens a fresh runtime, pool and executor per program. */
    Executor(const Programs &progs, bool interpreter, Trace *trace)
        : progs_(progs), interpreter_(interpreter), trace_(trace),
          slots_(kNumPrograms)
    {
        openAll();
    }

    /** Make sure @p index's program has a pool with room; every
     * schedule cycle after the first starts on fresh runtimes. */
    void
    prepare(std::uint64_t index)
    {
        if (index % kSchedule == 0 && index != 0)
            openAll();
        const Call &call = progs_.schedule[index % kSchedule];
        Slot &slot = slots_[call.program];
        const Bytes need = kPrograms[call.program].allocBytes(call.args);
        if (slot.rt->pools().allocator(slot.pool).freeBytes() < need)
            open(slot, call.program);
    }

    /** Call @main for schedule entry @p index (after prepare()). */
    std::uint64_t
    call(std::uint64_t index, std::uint64_t &instructions,
         std::uint64_t &checks)
    {
        const Call &c = progs_.schedule[index % kSchedule];
        Slot &slot = slots_[c.program];
        RuntimeScope scope(*slot.rt);
        std::uint64_t result = 0;
        if (interpreter_) {
            const std::uint64_t i0 = slot.interp->instructionCount();
            const std::uint64_t c0 = slot.interp->dynamicCheckCount();
            result = slot.interp->call("main", c.args);
            instructions = slot.interp->instructionCount() - i0;
            checks = slot.interp->dynamicCheckCount() - c0;
        } else {
            const std::uint64_t i0 = slot.fast->instructionCount();
            const std::uint64_t c0 = slot.fast->dynamicCheckCount();
            result = slot.fast->call("main", c.args);
            instructions = slot.fast->instructionCount() - i0;
            checks = slot.fast->dynamicCheckCount() - c0;
        }
        return result;
    }

    std::uint64_t rebuilds() const { return rebuilds_; }

  private:
    void
    openAll()
    {
        for (std::size_t p = 0; p < kNumPrograms; ++p)
            open(slots_[p], p);
    }

    /** Replace @p slot's runtime (and so its pool) with a fresh one. */
    void
    open(Slot &slot, std::size_t program)
    {
        slot.fast.reset();
        slot.interp.reset();
        slot.rt.reset();
        ++rebuilds_;
        Runtime::Config cfg = runtimeConfig();
        if (interpreter_)
            cfg.execTier = ExecTier::Model;
        slot.rt = std::make_unique<Runtime>(cfg);
        slot.rt->machine().setTrace(trace_);
        RuntimeScope scope(*slot.rt);
        slot.pool = slot.rt->createPool("exec", kPoolBytes);
        const Compiled &c = progs_.compiled[program];
        if (interpreter_) {
            Interpreter::Config icfg;
            icfg.pool = slot.pool;
            icfg.fuel = kFuel;
            slot.interp = std::make_unique<Interpreter>(*slot.rt, c.mod,
                                                        c.plan, icfg);
        } else {
            FastExecutor::Config xcfg;
            xcfg.pool = slot.pool;
            xcfg.fuel = kFuel;
            xcfg.tier = ExecTier::Native;
            slot.fast =
                std::make_unique<FastExecutor>(*slot.rt, c.lowered, xcfg);
        }
    }

    const Programs &progs_;
    bool interpreter_;
    Trace *trace_;
    std::vector<Slot> slots_;
    std::uint64_t rebuilds_ = 0;
};

/** One call's observable outcome. */
struct Outcome
{
    std::uint64_t result = 0;
    std::uint64_t instructions = 0;
    bool operator==(const Outcome &) const = default;
};

struct PhaseResult
{
    std::uint64_t calls = 0;
    double busyS = 0;
    std::uint64_t instructions = 0;
    std::uint64_t windowInstructions = 0;
    std::uint64_t windowChecks = 0;
    std::uint64_t rebuilds = 0;
    std::vector<Outcome> firstCycle;
    // One op slice and one rate slice per schedule cycle, so every
    // slice holds the same call mix.
    SlicedSamples read{kSchedule / 2}, write{kSchedule / 2}, op{kSchedule};
    RateSlices rate;
    double programNs[kNumPrograms] = {};
    std::uint64_t programCalls[kNumPrograms] = {};
};

/**
 * Call the schedule until @p seconds have passed and the counter
 * window is closed. Calls and rate slices are timed on the thread's
 * CPU clock (see CpuClock): every schedule cycle maps fresh pools.
 */
PhaseResult
timedPhase(const Programs &progs, Executor &ex, double seconds,
           Tracer &tracer)
{
    PhaseResult r;
    const auto start = Clock::now();
    auto slice_start = CpuClock::now();
    CpuRotation rotation;
    for (std::uint64_t i = 0;; ++i) {
        if (i % kSchedule == 0) {
            const auto now = CpuClock::now();
            if (i != 0)
                r.rate.add(kSchedule, secondsBetween(slice_start, now));
            slice_start = now;
        }
        if (i % kRotate == 0)
            rotation.step();
        if (i >= kWindow && secondsSince(start) >= seconds)
            break;
        ex.prepare(i);
        const Call &c = progs.schedule[i % kSchedule];
        Outcome o;
        std::uint64_t checks = 0;
        const auto t0 = CpuClock::now();
        {
            Tracer::Span s(tracer, SpanId::CompilerCall);
            o.result = ex.call(i, o.instructions, checks);
        }
        const auto t1 = CpuClock::now();
        const std::uint64_t ns = nsBetween(t0, t1);
        r.busyS += ns * 1e-9;
        r.op.add(ns);
        (kPrograms[c.program].readMostly ? r.read : r.write).add(ns);
        r.programNs[c.program] += ns;
        ++r.programCalls[c.program];
        r.instructions += o.instructions;
        if (i < kWindow) {
            r.windowInstructions += o.instructions;
            r.windowChecks += checks;
        }
        if (i < kSchedule)
            r.firstCycle.push_back(o);
        ++r.calls;
    }
    r.rebuilds = ex.rebuilds();
    return r;
}

/**
 * The Interpreter's outcomes for the first @p n schedule entries,
 * under the same pool-recycling policy (outside any timed phase).
 */
std::vector<Outcome>
expectedOutcomes(const Programs &progs, std::uint64_t n)
{
    Executor interp(progs, true, nullptr);
    std::vector<Outcome> want;
    for (std::uint64_t i = 0; i < n; ++i) {
        interp.prepare(i);
        Outcome o;
        std::uint64_t checks = 0;
        o.result = interp.call(i, o.instructions, checks);
        want.push_back(o);
    }
    return want;
}

/**
 * Oracle: every Native call must return the Interpreter's value and
 * count its instructions. Every cycle starts from fresh runtimes, so
 * call i repeats call i % kSchedule exactly and the first cycle's
 * outcomes stand for all. @return failed calls
 */
std::uint64_t
checkCalls(const Programs &progs, const PhaseResult &r,
           const std::vector<Outcome> &want)
{
    std::uint64_t bad = 0;
    for (std::uint64_t i = 0; i < r.firstCycle.size(); ++i) {
        if (r.firstCycle[i] == want.at(i))
            continue;
        bad += (r.calls - i + kSchedule - 1) / kSchedule;
        std::fprintf(stderr,
                     "ir_native: call %llu (%s) returned %llu in %llu "
                     "instructions; Interpreter: %llu in %llu\n",
                     (unsigned long long)i,
                     kPrograms[progs.schedule[i].program].name,
                     (unsigned long long)r.firstCycle[i].result,
                     (unsigned long long)r.firstCycle[i].instructions,
                     (unsigned long long)want[i].result,
                     (unsigned long long)want[i].instructions);
    }
    return bad;
}

/** The compiler-layer metrics and their bases. */
void
addCompilerMetrics(RunOutput &out, const PhaseResult &r,
                   const Programs &progs)
{
    auto &pl = out.perLayer;
    addMetric(pl, "compiler.lower_ms", progs.lowerMs, "ms");
    addMetric(pl, "compiler.insts_per_us",
              ratio(r.instructions, r.busyS * 1e6), "1/us");
    addMetric(pl, "compiler.checks_per_inst",
              ratio(r.windowChecks, r.windowInstructions), "ratio");
    addMetric(pl, "core.dynamic_checks_per_op",
              ratio(r.windowChecks, kWindow), "count");
    auto &d = out.detail;
    addMetric(d, "window.calls", kWindow, "count");
    addMetric(d, "window.instructions", r.windowInstructions, "count");
    addMetric(d, "window.dynamic_checks", r.windowChecks, "count");
    addMetric(d, "calls.instructions", r.instructions, "count");
    addMetric(d, "calls.busy_us", r.busyS * 1e6, "us");
    addMetric(d, "pools.rebuilt", r.rebuilds, "count");
    for (std::size_t p = 0; p < kNumPrograms; ++p) {
        addMetric(d, std::string("calls.") + kPrograms[p].name + ".mean_us",
                  ratio(r.programNs[p], r.programCalls[p] * 1e3), "us");
    }
}

RunOutput
untracedRun(const Options &opt)
{
    RunOutput out;
    std::unique_ptr<Programs> progs;
    std::unique_ptr<Executor> ex;
    const std::vector<double> setups =
        timeSetups([&] {
            ex.reset();
            progs.reset();
            progs = std::make_unique<Programs>(opt.seed);
            ex = std::make_unique<Executor>(*progs, false, nullptr);
        });
    Tracer off;
    const Usage u0 = readUsage();
    const PhaseResult r = timedPhase(*progs, *ex, opt.seconds, off);
    const Usage u1 = readUsage();
    out.attempted = r.calls;
    std::vector<Outcome> want = expectedOutcomes(*progs, r.firstCycle.size());
    if (opt.plantWrong)
        want.at(0).result ^= 1;
    out.failed = checkCalls(*progs, r, want);

    auto &e = out.endToEnd;
    addMetric(e, "setup_s", median(setups), "s");
    addMetric(e, "throughput_ops_s", r.rate.medianRate(), "ops/s");
    addMetric(e, "peak_rss_mb", u1.maxRssMb, "MiB");
    addLatencyMetrics(out, r.read, r.write, r.op);
    addMetric(out.detail, "samples.rate_slices", r.rate.count(), "count");
    addUsageMetrics(out, u0, u1, r.calls);
    addCompilerMetrics(out, r, *progs);
    return out;
}

RunOutput
tracedRun(const Options &opt)
{
    RunOutput out;
    const double half = opt.seconds / 2;
    const Programs progs(opt.seed);

    Tracer off;
    const Usage u0 = readUsage();
    Executor ex_a(progs, false, nullptr);
    const PhaseResult a = timedPhase(progs, ex_a, half, off);
    const Usage u1 = readUsage();

    // The Native tier skips the timing model for its loads and stores;
    // the few machine events it still records are replayed below.
    Tracer tracer(true);
    Trace trace;
    Executor ex_b(progs, false, &trace);
    const PhaseResult b = timedPhase(progs, ex_b, half, tracer);
    std::vector<Outcome> want = expectedOutcomes(
        progs, std::max(a.firstCycle.size(), b.firstCycle.size()));
    out.failed += checkCalls(progs, b, want);
    if (opt.plantWrong)
        want.at(0).result ^= 1;
    out.failed += checkCalls(progs, a, want);
    out.attempted = a.calls + b.calls;
    if (a.windowInstructions != b.windowInstructions ||
        a.windowChecks != b.windowChecks) {
        std::fprintf(stderr, "ir_native: traced counters differ from the "
                             "untraced run\n");
        ++out.failed;
    }

    double replay_ns = 0;
    if (trace.size() != 0) {
        const auto t0 = Clock::now();
        (void)replayTrace(trace, MachineParams{});
        replay_ns = nsBetween(t0, Clock::now());
    }
    auto &pl = out.perLayer;
    addMetric(pl, "arch.self_ns_per_op", ratio(replay_ns, b.calls), "ns");
    addMetric(pl, "arch.events_per_op", ratio(trace.size(), b.calls),
              "count");
    addUsageMetrics(out, u0, u1, a.calls);
    addMetric(pl, "harness.trace_overhead",
              ratio(b.rate.medianRate(), a.rate.medianRate()), "ratio");
    addCompilerMetrics(out, b, progs);
    addMetric(out.detail, "samples.call_spans",
              tracer.self(SpanId::CompilerCall).count(), "count");
    tracer.write(opt.traceDir + "/spans-ir_native.jsonl", 0);
    return out;
}

} // namespace

RunOutput
runIrNative(const Options &opt)
{
    return opt.trace ? tracedRun(opt) : untracedRun(opt);
}

} // namespace perfbench

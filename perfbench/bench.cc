#include "bench.hh"

#include <cmath>
#include <cstdio>

namespace perfbench
{

double
Samples::percentileUs(double p) const
{
    if (n_ == 0)
        return 0;
    const double target =
        std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(n_);
    double below = 0;
    for (int i = 0; i < kBuckets; ++i) {
        const double c = static_cast<double>(counts_[i]);
        if (c == 0 || below + c < target) {
            below += c;
            continue;
        }
        double lo = i, width = 1;
        if (i >= static_cast<int>(kSub)) {
            const int shift = i / static_cast<int>(kSub) - 1;
            lo = std::ldexp(static_cast<double>(kSub + i % kSub), shift);
            width = std::ldexp(1.0, shift);
        }
        return (lo + width * (target - below) / c) / 1000.0;
    }
    return 0;
}

std::uint64_t
SlicedSamples::count() const
{
    std::uint64_t n = 0;
    for (const Samples &s : slices_)
        n += s.count();
    return n;
}

std::size_t
SlicedSamples::groupSize(double p) const
{
    const double need = std::ceil(10.0 / std::max(1e-9, 1.0 - p / 100.0));
    return static_cast<std::size_t>(
        std::max(1.0, std::ceil(need / static_cast<double>(slice_))));
}

std::size_t
SlicedSamples::usableSlices() const
{
    // A trailing slice under half full would make a thin group.
    std::size_t usable = slices_.size();
    if (usable != 0 && slices_.back().count() < slice_ / 2)
        --usable;
    return usable;
}

std::size_t
SlicedSamples::groups(double p) const
{
    const std::size_t g = groupSize(p);
    const std::size_t step = std::max<std::size_t>(1, g / 2);
    const std::size_t usable = usableSlices();
    return usable < g + step ? 1 : (usable - g) / step + 1;
}

double
SlicedSamples::percentileUs(double p) const
{
    const std::size_t g = groupSize(p);
    const std::size_t step = std::max<std::size_t>(1, g / 2);
    if (groups(p) < 2) {
        Samples all;
        for (const Samples &s : slices_)
            all.merge(s);
        return all.percentileUs(p);
    }
    std::vector<double> per_group;
    for (std::size_t i = 0; i + g <= usableSlices(); i += step) {
        Samples group;
        for (std::size_t j = i; j < i + g; ++j)
            group.merge(slices_[j]);
        per_group.push_back(group.percentileUs(p));
    }
    return median(per_group);
}

double
RateSlices::medianRate() const
{
    std::vector<double> rates;
    for (const auto &[ops, secs] : slices_) {
        if (secs > 0)
            rates.push_back(static_cast<double>(ops) / secs);
    }
    return median(rates);
}

std::uint64_t
ResultDigest::mismatches(const ResultDigest &expected) const
{
    std::uint64_t bad = 0;
    const std::size_t n = std::max(blocks_.size(), expected.blocks_.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (i >= blocks_.size() || i >= expected.blocks_.size() ||
            blocks_[i] != expected.blocks_[i])
            ++bad;
    }
    if (cur_ != expected.cur_)
        ++bad;
    if (bad == 0 && (n_ != expected.n_ || checksum_ != expected.checksum_))
        bad = 1;
    return bad;
}

SimCounters
readCounters(upr::Runtime &rt, const upr::TxnStats &txn)
{
    SimCounters c;
    upr::Machine &m = rt.machine();
    c.arch.cycles = m.now();
    c.arch.memAccesses = m.memAccesses();
    c.arch.storePs = m.storePCount();
    c.arch.l1Hits = m.caches().l1().hits();
    c.arch.l1Misses = m.caches().l1().misses();
    c.arch.l3Hits = m.caches().l3().hits();
    c.arch.l3Misses = m.caches().l3().misses();
    c.arch.dtlbMisses = m.tlbs().l1().misses();
    c.arch.pageWalks = m.tlbs().walks();
    c.arch.branches = m.bpred().branches();
    c.arch.branchMisses = m.bpred().mispredicts();
    c.arch.polbAccesses = m.polb().accesses();
    c.arch.polbWalks = m.polb().walkCount();
    c.arch.valbAccesses = m.valb().accesses();
    c.arch.valbWalks = m.valb().walkCount();
    c.core.dynamicChecks = rt.dynamicChecks();
    c.core.absToRel = rt.absToRel();
    c.core.relToAbs = rt.relToAbs();
    c.core.reuseHits = rt.reuseHits();
    c.txn.commits = txn.undoCommits.value() + txn.redoCommits.value();
    c.txn.flushes = txn.undoFlushes.value() + txn.redoFlushes.value();
    c.txn.fences = txn.undoFences.value() + txn.redoFences.value();
    return c;
}

namespace
{

template <typename F>
void
eachField(SimCounters &a, const SimCounters &b, F f)
{
    f(a.arch.cycles, b.arch.cycles);
    f(a.arch.memAccesses, b.arch.memAccesses);
    f(a.arch.storePs, b.arch.storePs);
    f(a.arch.l1Hits, b.arch.l1Hits);
    f(a.arch.l1Misses, b.arch.l1Misses);
    f(a.arch.l3Hits, b.arch.l3Hits);
    f(a.arch.l3Misses, b.arch.l3Misses);
    f(a.arch.dtlbMisses, b.arch.dtlbMisses);
    f(a.arch.pageWalks, b.arch.pageWalks);
    f(a.arch.branches, b.arch.branches);
    f(a.arch.branchMisses, b.arch.branchMisses);
    f(a.arch.polbAccesses, b.arch.polbAccesses);
    f(a.arch.polbWalks, b.arch.polbWalks);
    f(a.arch.valbAccesses, b.arch.valbAccesses);
    f(a.arch.valbWalks, b.arch.valbWalks);
    f(a.core.dynamicChecks, b.core.dynamicChecks);
    f(a.core.absToRel, b.core.absToRel);
    f(a.core.relToAbs, b.core.relToAbs);
    f(a.core.reuseHits, b.core.reuseHits);
    f(a.txn.commits, b.txn.commits);
    f(a.txn.flushes, b.txn.flushes);
    f(a.txn.fences, b.txn.fences);
}

} // namespace

SimCounters
operator-(const SimCounters &after, const SimCounters &before)
{
    SimCounters d = after;
    eachField(d, before,
              [](std::uint64_t &x, std::uint64_t y) { x -= y; });
    return d;
}

SimCounters &
operator+=(SimCounters &acc, const SimCounters &d)
{
    eachField(acc, d, [](std::uint64_t &x, std::uint64_t y) { x += y; });
    return acc;
}

const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> all;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0) {
            for (int c = 0; c < CPU_SETSIZE; ++c) {
                if (CPU_ISSET(c, &set))
                    all.push_back(c);
            }
        }
        return all;
    }();
    return cpus;
}

CpuRotation::CpuRotation(unsigned part, unsigned parts)
{
    CPU_ZERO(&original_);
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return; // cannot tell: stay where the scheduler put us
    const std::vector<int> &all = allowedCpus();
    for (std::size_t i = 0; i < all.size(); ++i) {
        if (parts <= all.size() ? i % parts == part % parts
                                : i == part % all.size())
            cpus_.push_back(all[i]);
    }
    step();
}

CpuRotation::~CpuRotation()
{
    if (!cpus_.empty())
        sched_setaffinity(0, sizeof(original_), &original_);
}

void
CpuRotation::step()
{
    if (cpus_.empty())
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_ % cpus_.size()], &one);
    ++next_;
    sched_setaffinity(0, sizeof(one), &one);
}

Usage
readUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.minorFaults = static_cast<std::uint64_t>(ru.ru_minflt);
    u.userS = ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6;
    u.sysS = ru.ru_stime.tv_sec + ru.ru_stime.tv_usec * 1e-6;
    u.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
    return u;
}

const char *
spanName(SpanId id)
{
    switch (id) {
      case SpanId::Op:               return "op";
      case SpanId::ContainersFind:   return "containers.find";
      case SpanId::ContainersInsert: return "containers.insert";
      case SpanId::NvmBegin:         return "nvm.beginTxn";
      case SpanId::NvmCommit:        return "nvm.commitTxn";
      case SpanId::CrashRerun:       return "crash.rerun";
      case SpanId::MemAssign:        return "mem.assign";
      case SpanId::NvmRecover:       return "nvm.recover";
      case SpanId::CrashValidate:    return "crash.validate";
      case SpanId::CompilerCall:     return "compiler.call";
      case SpanId::Count:            break;
    }
    return "?";
}

void
Tracer::open(SpanId id)
{
    const std::uint32_t parent =
        stack_.empty() ? UINT32_MAX : stack_.back().logIdx;
    std::uint32_t idx = UINT32_MAX;
    if (log_.size() < kMaxLogged) {
        idx = static_cast<std::uint32_t>(log_.size());
        log_.push_back(Record{id, parent, 0, 0});
    } else {
        ++dropped_;
    }
    stack_.push_back(Open{id, parent, Clock::now(), 0, idx});
}

void
Tracer::close()
{
    const auto end = Clock::now();
    const Open o = stack_.back();
    stack_.pop_back();
    const std::uint64_t dur = nsBetween(o.start, end);
    self(o.id).add(dur >= o.childNs ? dur - o.childNs : 0);
    if (!stack_.empty())
        stack_.back().childNs += dur;
    if (o.logIdx != UINT32_MAX) {
        log_[o.logIdx].startNs = nsBetween(epoch_, o.start);
        log_[o.logIdx].endNs = nsBetween(epoch_, end);
    }
}

void
Tracer::merge(const Tracer &other)
{
    for (int i = 0; i < static_cast<int>(SpanId::Count); ++i)
        self_[i].merge(other.self_[i]);
    dropped_ += other.dropped_;
}

bool
Tracer::write(const std::string &path, unsigned thread) const
{
    std::FILE *f = std::fopen(path.c_str(), thread == 0 ? "w" : "a");
    if (f == nullptr)
        return false;
    for (std::size_t i = 0; i < log_.size(); ++i) {
        const Record &r = log_[i];
        std::fprintf(f,
                     "{\"thread\":%u,\"id\":%zu,\"parent\":%lld,"
                     "\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu}\n",
                     thread, i,
                     r.parent == UINT32_MAX ? -1LL
                                            : (long long)r.parent,
                     spanName(r.id), (unsigned long long)r.startNs,
                     (unsigned long long)r.endNs);
    }
    if (dropped_ != 0) {
        std::fprintf(f, "{\"thread\":%u,\"dropped_spans\":%llu}\n",
                     thread, (unsigned long long)dropped_);
    }
    return std::fclose(f) == 0;
}

double
timerCostNs()
{
    // Median over batches of back-to-back reads.
    std::vector<double> per;
    for (int b = 0; b < 9; ++b) {
        constexpr int kReads = 20000;
        const auto t0 = Clock::now();
        Clock::time_point last = t0;
        for (int i = 0; i < kReads; ++i)
            last = Clock::now();
        per.push_back(static_cast<double>(nsBetween(t0, last)) / kReads);
    }
    return median(per);
}

double
median(std::vector<double> xs)
{
    if (xs.empty())
        return 0;
    std::sort(xs.begin(), xs.end());
    const std::size_t n = xs.size();
    return n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
}

void
addMetric(std::vector<Metric> &v, const std::string &name, double value,
          const std::string &unit)
{
    for (const Metric &m : v) {
        if (m.name == name)
            return;
    }
    v.push_back(Metric{name, std::isfinite(value) ? value : 0, unit});
}

void
addLatencyMetrics(RunOutput &out, const SlicedSamples &read,
                  const SlicedSamples &write, const SlicedSamples &op)
{
    const std::pair<const char *, const SlicedSamples *> classes[] = {
        {"read", &read}, {"write", &write}, {"op", &op}};
    for (const auto &[name, samples] : classes) {
        const std::string n = name;
        addMetric(out.endToEnd, n + "_p50_us", samples->percentileUs(50),
                  "us");
        addMetric(out.endToEnd, n + "_p99_us", samples->percentileUs(99),
                  "us");
        addMetric(out.detail, "samples." + n, samples->count(), "count");
        addMetric(out.detail, "samples." + n + "_p99_groups",
                  samples->groups(99), "count");
    }
}

void
addUsageMetrics(RunOutput &out, const Usage &u0, const Usage &u1,
                std::uint64_t ops)
{
    const double sys = u1.sysS - u0.sysS;
    const double user = u1.userS - u0.userS;
    addMetric(out.perLayer, "mem.minor_faults_per_op",
              ratio(u1.minorFaults - u0.minorFaults, ops), "count");
    addMetric(out.perLayer, "mem.sys_share", ratio(sys, user + sys),
              "ratio");
    addMetric(out.detail, "mem.minor_faults", u1.minorFaults - u0.minorFaults,
              "count");
    addMetric(out.detail, "mem.user_s", user, "s");
    addMetric(out.detail, "mem.sys_s", sys, "s");
}

void
addCounterMetrics(RunOutput &out, const SimCounters &w, std::uint64_t ops)
{
    const ArchCounters &a = w.arch;
    const double n = static_cast<double>(ops);
    auto &pl = out.perLayer;
    addMetric(pl, "arch.sim_cycles_per_op", ratio(a.cycles, n), "cycles");
    addMetric(pl, "arch.l1_miss_ratio",
              ratio(a.l1Misses, a.l1Hits + a.l1Misses), "ratio");
    addMetric(pl, "arch.llc_miss_ratio",
              ratio(a.l3Misses, a.l3Hits + a.l3Misses), "ratio");
    addMetric(pl, "arch.tlb_miss_ratio",
              ratio(a.dtlbMisses, a.memAccesses), "ratio");
    addMetric(pl, "arch.branch_miss_ratio",
              ratio(a.branchMisses, a.branches), "ratio");
    const CoreCounters &c = w.core;
    addMetric(pl, "core.dynamic_checks_per_op",
              ratio(c.dynamicChecks, n), "count");
    addMetric(pl, "core.conversions_per_op",
              ratio(c.absToRel + c.relToAbs, n), "count");
    addMetric(pl, "core.reuse_hit_ratio",
              ratio(c.reuseHits, c.reuseHits + c.relToAbs), "ratio");

    auto &d = out.detail;
    const auto base = [&d](const char *name, std::uint64_t v) {
        addMetric(d, name, static_cast<double>(v), "count");
    };
    base("window.ops", ops);
    base("window.sim_cycles", a.cycles);
    base("window.mem_accesses", a.memAccesses);
    base("window.storeps", a.storePs);
    base("window.l1_hits", a.l1Hits);
    base("window.l1_misses", a.l1Misses);
    base("window.llc_hits", a.l3Hits);
    base("window.llc_misses", a.l3Misses);
    base("window.dtlb_misses", a.dtlbMisses);
    base("window.page_walks", a.pageWalks);
    base("window.branches", a.branches);
    base("window.branch_misses", a.branchMisses);
    base("window.polb_accesses", a.polbAccesses);
    base("window.polb_walks", a.polbWalks);
    base("window.valb_accesses", a.valbAccesses);
    base("window.valb_walks", a.valbWalks);
    base("window.dynamic_checks", c.dynamicChecks);
    base("window.abs_to_rel", c.absToRel);
    base("window.rel_to_abs", c.relToAbs);
    base("window.reuse_hits", c.reuseHits);
    base("window.txn_commits", w.txn.commits);
    base("window.txn_flushes", w.txn.flushes);
    base("window.txn_fences", w.txn.fences);
}

const std::vector<MetricSpec> &
endToEndSpecs()
{
    static const std::vector<MetricSpec> kSpecs = {
        {"setup_s", "s"},          {"throughput_ops_s", "ops/s"},
        {"read_p50_us", "us"},     {"read_p99_us", "us"},
        {"write_p50_us", "us"},    {"write_p99_us", "us"},
        {"op_p50_us", "us"},       {"op_p99_us", "us"},
        {"success_rate", "ratio"}, {"peak_rss_mb", "MiB"},
    };
    return kSpecs;
}

const std::vector<MetricSpec> &
perLayerSpecs()
{
    static const std::vector<MetricSpec> kSpecs = {
        {"arch.self_ns_per_op", "ns"},
        {"arch.events_per_op", "count"},
        {"arch.l1_miss_ratio", "ratio"},
        {"arch.llc_miss_ratio", "ratio"},
        {"arch.tlb_miss_ratio", "ratio"},
        {"arch.branch_miss_ratio", "ratio"},
        {"arch.sim_cycles_per_op", "cycles"},
        {"core.dynamic_checks_per_op", "count"},
        {"core.conversions_per_op", "count"},
        {"core.reuse_hit_ratio", "ratio"},
        {"core.shard_busy_max_over_mean", "ratio"},
        {"containers.find_us", "us"},
        {"containers.insert_us", "us"},
        {"nvm.commit_p50_us", "us"},
        {"nvm.commit_p99_us", "us"},
        {"nvm.flushes_per_write", "count"},
        {"nvm.fences_per_write", "count"},
        {"nvm.recover_p50_us", "us"},
        {"mem.assign_us", "us"},
        {"mem.minor_faults_per_op", "count"},
        {"mem.sys_share", "ratio"},
        {"crash.rerun_us", "us"},
        {"crash.validate_us", "us"},
        {"crash.rollback_ratio", "ratio"},
        {"compiler.lower_ms", "ms"},
        {"compiler.insts_per_us", "1/us"},
        {"compiler.checks_per_inst", "ratio"},
        {"harness.trace_overhead", "ratio"},
        {"harness.timer_ns", "ns"},
    };
    return kSpecs;
}

std::vector<Metric>
inSpecOrder(const std::vector<Metric> &reported,
            const std::vector<MetricSpec> &specs)
{
    std::vector<Metric> ordered;
    for (const MetricSpec &spec : specs) {
        double value = 0; // the layer does not run on this workload
        for (const Metric &m : reported) {
            if (m.name == spec.name) {
                value = m.value;
                break;
            }
        }
        ordered.push_back(Metric{spec.name, value, spec.unit});
    }
    return ordered;
}

} // namespace perfbench

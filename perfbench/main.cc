/**
 * @file
 * The repository benchmark's main program.
 *
 *   perfbench --workload <paper_grid|kv_durable|crash_sweep|ir_native>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--trace-dir <dir>] [--plant-wrong]
 *
 * Runs one workload generated from the seed and prints, as the last
 * line of standard output, one JSON object:
 *   {"correct": bool, "attempted": n, "failed": n,
 *    "metrics": {name: {"value": x, "unit": u}, ...}}
 * With --trace 0 the metrics are the end-to-end set of an untraced
 * run; with --trace 1 the per-layer set of a traced run. A detail
 * line before it carries every ratio's base and sample counts.
 * Exits non-zero when any operation failed its check.
 * --plant-wrong corrupts one expected value, for the oracle's test.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hh"
#include "common/logging.hh"

namespace
{

using namespace perfbench;

std::string
number(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, r.ptr);
}

std::string
metricsJson(const std::vector<Metric> &ms)
{
    std::string s = "{";
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (i != 0)
            s += ", ";
        s += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
             ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    return s + "}";
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload <paper_grid|kv_durable|"
                 "crash_sweep|ir_native> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>] [--plant-wrong]\n",
                 msg);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = std::strtoull(value().c_str(), nullptr, 0);
        } else if (arg == "--seconds") {
            opt.seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--trace") {
            opt.trace = value() != "0";
        } else if (arg == "--trace-dir") {
            opt.traceDir = value();
        } else if (arg == "--plant-wrong") {
            opt.plantWrong = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (!(opt.seconds > 0))
        usage("--seconds must be positive");
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    (void)allowedCpus(); // before any thread is pinned
    // Recovery of torn crash images warns by design; keep stderr for
    // the benchmark's own diagnostics and for fatal errors.
    upr::setLogSink(+[](upr::LogLevel level, const std::string &msg) {
        if (level == upr::LogLevel::Panic || level == upr::LogLevel::Fatal)
            std::fprintf(stderr, "%s\n", msg.c_str());
    });

    RunOutput out;
    try {
        if (opt.workload == "paper_grid")
            out = runPaperGrid(opt);
        else if (opt.workload == "kv_durable")
            out = runKvDurable(opt);
        else if (opt.workload == "crash_sweep")
            out = runCrashSweep(opt);
        else if (opt.workload == "ir_native")
            out = runIrNative(opt);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench %s: %s\n", opt.workload.c_str(),
                     e.what());
        return 1;
    }
    if (out.attempted == 0) {
        std::fprintf(stderr, "perfbench %s: no operation ran\n",
                     opt.workload.c_str());
        return 1;
    }

    const double error_rate =
        static_cast<double>(out.failed) / static_cast<double>(out.attempted);
    addMetric(out.detail, "error_rate", error_rate, "ratio");
    addMetric(out.endToEnd, "success_rate", 1.0 - error_rate, "ratio");
    if (opt.trace)
        addMetric(out.perLayer, "harness.timer_ns", timerCostNs(), "ns");

    const std::vector<Metric> metrics =
        opt.trace ? inSpecOrder(out.perLayer, perLayerSpecs())
                  : inSpecOrder(out.endToEnd, endToEndSpecs());
    const bool correct = out.failed == 0;
    std::printf("{\"detail\": %s}\n", metricsJson(out.detail).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)out.attempted,
                (unsigned long long)out.failed,
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

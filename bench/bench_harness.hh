/**
 * @file
 * Shared machinery of the bench_harness suites: the forked cell
 * runner and the invocation-wide cache of paper-harness simulations
 * that the fig11 and paper suites both read.
 *
 * Cells run in child *processes*, not threads, for determinism:
 * branch-predictor site indices are salted at each pointer-op call
 * site's first execution (detail::nextSiteSalt), so cells sharing one
 * process would be handed salts in run order and "identical" runs
 * would drift by a few cycles. fork() gives every cell the harness
 * process's salt state, and the harness process itself never runs a
 * simulation before its forked suites are done (see the suite
 * registry in bench_harness.cpp), so each cell's counters equal a
 * standalone run of exactly that cell, under any parallelism and any
 * suite selection.
 */

#ifndef UPR_BENCH_BENCH_HARNESS_HH
#define UPR_BENCH_BENCH_HARNESS_HH

#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "bench_common.hh"

namespace upr::bench
{

using SteadyClock = std::chrono::steady_clock;

inline double
millisSince(SteadyClock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               SteadyClock::now() - start)
        .count();
}

inline const Version kAllVersions[] = {Version::Volatile, Version::Sw,
                                       Version::Hw, Version::Explicit};

/** Fixed-size result record shipped child -> parent over a pipe. */
template <typename Stats>
struct ForkOutcome
{
    Stats stats = {};
    double wallMs = 0;
    std::uint8_t failed = 0;
    char error[160] = {};
};

using CellOutcome = ForkOutcome<RunStats>;

template <typename Stats>
void
setOutcomeError(ForkOutcome<Stats> &oc, const char *what)
{
    oc.failed = 1;
    std::snprintf(oc.error, sizeof(oc.error), "%s", what);
}

/** Live threads in this process (fork safety: must be 1 to fork). */
inline unsigned
threadCount()
{
    DIR *dir = opendir("/proc/self/task");
    if (dir == nullptr)
        return 1; // no procfs: cannot tell, assume quiesced
    unsigned n = 0;
    while (const dirent *e = readdir(dir)) {
        if (e->d_name[0] != '.')
            ++n;
    }
    closedir(dir);
    return n;
}

/**
 * Run @p n cells, each in its own forked child, at most @p jobs
 * children live at once. @p fn(i) computes cell i's Stats (in the
 * child). A child that dies without reporting yields a failed cell,
 * not a dead harness.
 *
 * Fork safety: fork() in a multi-threaded process duplicates only the
 * calling thread — any lock another thread holds (malloc's arena, a
 * Runtime's shard) stays locked forever in the child. Suites that
 * spawn threads (the concurrent one) must join them before the next
 * forked suite runs; this runner enforces the contract by refusing
 * to fork while the process has more than one live thread.
 */
template <typename Stats, typename RunFn>
std::vector<ForkOutcome<Stats>>
runForked(std::size_t n, unsigned jobs, RunFn fn)
{
    static_assert(std::is_trivially_copyable_v<Stats>,
                  "outcome record crosses a pipe");
    std::vector<ForkOutcome<Stats>> out(n);
    std::vector<pid_t> pids(n, -1);
    std::vector<int> fds(n, -1);
    std::size_t launched = 0;
    std::size_t live = 0;

    const auto launch = [&](std::size_t i) {
        if (threadCount() > 1) {
            setOutcomeError(out[i],
                            "refusing to fork: the harness process is "
                            "multi-threaded (a previous suite did "
                            "not quiesce its workers)");
            return;
        }
        int pipefd[2];
        if (pipe(pipefd) != 0) {
            setOutcomeError(out[i], "pipe() failed");
            return;
        }
        std::fflush(nullptr); // don't duplicate buffered output
        const pid_t pid = fork();
        if (pid < 0) {
            close(pipefd[0]);
            close(pipefd[1]);
            setOutcomeError(out[i], "fork() failed");
            return;
        }
        if (pid == 0) {
            close(pipefd[0]);
            ForkOutcome<Stats> oc;
            const auto t0 = SteadyClock::now();
            try {
                oc.stats = fn(i);
            } catch (const std::exception &e) {
                setOutcomeError(oc, e.what());
            }
            oc.wallMs = millisSince(t0);
            // One record, well under PIPE_BUF: a single atomic write.
            const ssize_t w = write(pipefd[1], &oc, sizeof(oc));
            _exit(w == static_cast<ssize_t>(sizeof(oc)) ? 0 : 1);
        }
        close(pipefd[1]);
        pids[i] = pid;
        fds[i] = pipefd[0];
        ++live;
    };

    const auto reap = [&] {
        int status = 0;
        const pid_t pid = waitpid(-1, &status, 0);
        if (pid < 0)
            return;
        for (std::size_t i = 0; i < n; ++i) {
            if (pids[i] != pid)
                continue;
            const ssize_t r = read(fds[i], &out[i], sizeof(out[i]));
            if (r != static_cast<ssize_t>(sizeof(out[i])) ||
                (WIFEXITED(status) && WEXITSTATUS(status) != 0) ||
                WIFSIGNALED(status)) {
                if (!out[i].failed)
                    setOutcomeError(out[i],
                                    "cell process died without "
                                    "reporting");
            }
            close(fds[i]);
            fds[i] = -1;
            pids[i] = -1;
            --live;
            return;
        }
    };

    while (launched < n || live > 0) {
        if (launched < n && live < jobs)
            launch(launched++);
        else
            reap();
    }
    return out;
}

/**
 * One run of the paper's harness (bench_common.hh run()): a
 * (workload, version) pair under knobs named by @ref knobs — empty for
 * the Table IV defaults, else a label unique to the knob setting
 * (e.g. "nvm=480"), so two cells with the same label are the same
 * simulation.
 */
struct SimCell
{
    Workload workload;
    Version version;
    std::string knobs = {};
    MachineParams params = {};
    MmuFrontModel front = MmuFrontModel::None;
};

/**
 * Every SimCell simulated in this invocation, so a cell that several
 * tables read (the fig11 grid feeds Figs 11/13/14/15, Tables III/V and
 * the latency sweeps) is simulated once.
 */
class SimCache
{
  public:
    /**
     * Simulate, @p jobs forked children at a time, every cell of
     * @p want not simulated yet.
     * @return false if any cell of @p want failed, in this call
     *         (reported on stderr) or an earlier one.
     */
    bool
    ensure(const std::vector<SimCell> &want, unsigned jobs)
    {
        std::vector<SimCell> todo;
        for (const SimCell &c : want) {
            const Key k{c.workload, c.version, c.knobs};
            if (done_.count(k) != 0)
                continue;
            done_[k] = {}; // claimed: a duplicate in @p want runs once
            todo.push_back(c);
        }
        const std::vector<CellOutcome> outs =
            runForked<RunStats>(todo.size(), jobs, [&](std::size_t i) {
                const SimCell &c = todo[i];
                return run(c.workload, c.version, c.params, c.front);
            });
        for (std::size_t i = 0; i < todo.size(); ++i) {
            const SimCell &c = todo[i];
            done_[Key{c.workload, c.version, c.knobs}] = outs[i];
            if (outs[i].failed) {
                std::fprintf(stderr, "FAIL %s/%s%s%s: %s\n",
                             workloadName(c.workload),
                             versionName(c.version),
                             c.knobs.empty() ? "" : " ",
                             c.knobs.c_str(), outs[i].error);
            }
        }
        simulated_ += todo.size();
        bool ok = true;
        for (const SimCell &c : want)
            ok = !at(c).failed && ok;
        return ok;
    }

    /** A cell an earlier ensure() simulated. */
    const CellOutcome &
    at(const SimCell &c) const
    {
        return done_.at(Key{c.workload, c.version, c.knobs});
    }

    /** The cell's counters (zeros if it failed). */
    const RunStats &
    stats(const SimCell &c) const
    {
        return at(c).stats;
    }

    /** Cells simulated so far in this invocation. */
    std::size_t simulated() const { return simulated_; }

  private:
    using Key = std::tuple<Workload, Version, std::string>;

    std::map<Key, CellOutcome> done_;
    std::size_t simulated_ = 0;
};

/** The 24 cells of the Fig 11 grid, workload-major. */
inline std::vector<SimCell>
gridCells()
{
    std::vector<SimCell> cells;
    for (Workload w : kAllWorkloads)
        for (Version v : kAllVersions)
            cells.push_back(SimCell{w, v});
    return cells;
}

/** What every suite is handed. */
struct SuiteContext
{
    std::string outDir;
    unsigned jobs = 1;
    SimCache sims;
};

/**
 * The paper suite: Fig 12, the Fig 14 sweep, the NVM/POLB latency
 * sweeps, the cache-geometry replay, Table II, the KNN case study and
 * the four ablations (bench_paper.cpp).
 */
bool runPaperSuite(SuiteContext &ctx);

} // namespace upr::bench

#endif // UPR_BENCH_BENCH_HARNESS_HH

#include "arch/trace.hh"

#include <cstdio>
#include <fstream>

#include "arch/branch.hh"
#include "arch/cache.hh"
#include "arch/storep_unit.hh"
#include "arch/tlb.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace upr
{

namespace
{
constexpr std::uint64_t kTraceMagic = 0x5550'525f'5452'4143ULL;
constexpr std::uint32_t kTraceVersion = 1;
} // namespace

void
Trace::save(const std::string &path) const
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    if (!os) {
        throw Fault(FaultKind::BadUsage,
                    "cannot open '" + path + "' for writing");
    }
    const std::uint64_t magic = kTraceMagic;
    const std::uint32_t version = kTraceVersion;
    const std::uint64_t count = events_.size();
    os.write(reinterpret_cast<const char *>(&magic), sizeof(magic));
    os.write(reinterpret_cast<const char *>(&version),
             sizeof(version));
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const TraceEvent &e : events_) {
        const std::uint8_t kind = static_cast<std::uint8_t>(e.kind);
        os.write(reinterpret_cast<const char *>(&kind), 1);
        os.write(reinterpret_cast<const char *>(&e.a), sizeof(e.a));
        os.write(reinterpret_cast<const char *>(&e.b), sizeof(e.b));
    }
    if (!os)
        throw Fault(FaultKind::BadUsage, "short write to '" + path +
                    "'");
}

Trace
Trace::load(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        throw Fault(FaultKind::BadUsage, "cannot open '" + path + "'");
    std::uint64_t magic = 0;
    std::uint32_t version = 0;
    std::uint64_t count = 0;
    is.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    is.read(reinterpret_cast<char *>(&version), sizeof(version));
    is.read(reinterpret_cast<char *>(&count), sizeof(count));
    if (!is || magic != kTraceMagic) {
        throw Fault(FaultKind::BadUsage,
                    "'" + path + "' is not a trace file");
    }
    if (version != kTraceVersion) {
        throw Fault(FaultKind::BadUsage, "trace version mismatch");
    }
    Trace t;
    for (std::uint64_t i = 0; i < count; ++i) {
        std::uint8_t kind = 0;
        TraceEvent e;
        is.read(reinterpret_cast<char *>(&kind), 1);
        is.read(reinterpret_cast<char *>(&e.a), sizeof(e.a));
        is.read(reinterpret_cast<char *>(&e.b), sizeof(e.b));
        if (!is)
            throw Fault(FaultKind::BadUsage, "trace truncated");
        e.kind = static_cast<TraceEvent::Kind>(kind);
        t.append(e);
    }
    return t;
}

ReplayResult
replayTrace(const Trace &trace, const MachineParams &params)
{
    CacheHierarchy caches(params);
    TlbHierarchy tlbs(params);
    BranchPredictor bpred(params);
    StorePUnit storep(params);

    ReplayResult res;
    Cycles now = 0;

    for (const TraceEvent &e : trace.events()) {
        switch (e.kind) {
          case TraceEvent::Kind::MemAccess: {
            const SimAddr va = e.a;
            const bool write = (e.b >> 8) & 1;
            const bool nvm = Layout::isNvm(va);
            ++res.memAccesses;
            Cycles lat = tlbs.access(va);
            const std::uint64_t l1_misses_before =
                caches.l1().misses();
            lat += caches.access(va, write, nvm);
            res.l1Misses +=
                caches.l1().misses() - l1_misses_before;
            now += lat;
            break;
          }
          case TraceEvent::Kind::Branch: {
            ++res.branches;
            const bool wrong = bpred.branch(e.a, e.b != 0);
            now += 1 + (params.branchMissPenalty & (Cycles{0} - wrong));
            res.branchMisses += wrong;
            break;
          }
          case TraceEvent::Kind::Tick:
            now += e.a;
            break;
          case TraceEvent::Kind::StorePIssue:
            ++res.storePs;
            now += storep.issue(now, e.a, e.b);
            break;
        }
    }
    res.cycles = now;
    return res;
}

} // namespace upr

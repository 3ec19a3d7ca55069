#include "faultinject/media_fault.hh"

#include <cstddef>
#include <cstring>

#include "common/logging.hh"
#include "faultinject/fault_stats.hh"
#include "mem/backing.hh"
#include "nvm/log_format.hh"
#include "nvm/pool.hh"
#include "nvm/pool_allocator.hh"
#include "obs/trace_ring.hh"

namespace upr
{

namespace
{

// The log region's wire format is shared with both transaction
// engines; see nvm/log_format.hh.
using logfmt::LogControl;
using logfmt::LogEntry;

/** splitmix64 step: the sweep's only randomness, fully seed-driven. */
std::uint64_t
mix(std::uint64_t &state)
{
    state += 0x9E37'79B9'7F4A'7C15ULL;
    std::uint64_t x = state;
    x = (x ^ (x >> 30)) * 0xBF58'476D'1CE4'E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D0'49BB'1331'11EBULL;
    return x ^ (x >> 31);
}

/** Read a little struct field out of a raw image. */
template <typename T>
bool
readAt(const std::vector<std::uint8_t> &image, Bytes off, T &out)
{
    if (off > image.size() || image.size() - off < sizeof(T))
        return false;
    std::memcpy(&out, image.data() + off, sizeof(T));
    return true;
}

void
addRange(std::vector<Bytes> &out, Bytes off, Bytes len)
{
    for (Bytes i = 0; i < len; ++i)
        out.push_back(off + i);
}

/**
 * Header bytes the subsystem claims to protect: the identity fields
 * and their CRC, plus the recomputable allocator heads. rootOff and
 * the pad are excluded (see the file comment in media_fault.hh).
 */
std::vector<Bytes>
headerTargets(const std::vector<std::uint8_t> &image)
{
    std::vector<Bytes> out;
    if (image.size() < sizeof(PoolHeader))
        return out;
    addRange(out, offsetof(PoolHeader, magic), sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, version), sizeof(std::uint32_t));
    addRange(out, offsetof(PoolHeader, poolId), sizeof(std::uint32_t));
    addRange(out, offsetof(PoolHeader, size), sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, freeHead), sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, usedBytes),
             sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, arenaStart),
             sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, logStart), sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, logSize), sizeof(std::uint64_t));
    addRange(out, offsetof(PoolHeader, identCrc),
             sizeof(std::uint32_t));
    // The engine field joined the identity CRC when the redo engine
    // arrived, but only for nonzero values: on legacy-layout (undo)
    // images it is CRC-unprotected padding, so damage there would be
    // undetectable by design and targeting it would break the
    // zero-silent-corruption invariant. Target it on redo images only.
    PoolHeader h;
    if (readAt(image, 0, h) && h.engine != 0)
        addRange(out, offsetof(PoolHeader, engine),
                 sizeof(std::uint32_t));
    return out;
}

/**
 * The control block plus every valid entry except the last: the last
 * entry's damage is indistinguishable from a benign torn tail, so
 * targeting it would make the zero-silent-corruption invariant
 * unprovable (media_fault.hh explains why).
 */
std::vector<Bytes>
undoLogTargets(const std::vector<std::uint8_t> &image)
{
    std::vector<Bytes> out;
    PoolHeader h;
    if (!readAt(image, 0, h) || h.magic != PoolHeader::kMagic)
        return out;
    if (h.logStart + h.logSize < h.logStart ||
        h.logStart + h.logSize > image.size() ||
        h.logSize < sizeof(LogControl))
        return out;

    addRange(out, h.logStart, sizeof(LogControl));

    LogControl c;
    if (!readAt(image, h.logStart, c) || c.active == 0)
        return out;
    const Bytes area = h.logStart + sizeof(LogControl);
    const Bytes cap = h.logSize - sizeof(LogControl);
    const Bytes tail = c.tail <= cap ? c.tail : cap;

    // Walk the valid prefix exactly the way recovery does.
    std::vector<std::pair<Bytes, Bytes>> entries; // (offset, extent)
    Bytes cursor = 0;
    while (cursor + sizeof(LogEntry) <= tail) {
        LogEntry e;
        if (!readAt(image, area + cursor, e))
            break;
        const Bytes extent = sizeof(e) + e.length;
        if (e.length == 0 || cursor + extent > tail)
            break;
        if (e.poolOffset > h.size || e.length > h.size - e.poolOffset)
            break;
        const std::uint8_t *payload =
            image.data() + area + cursor + sizeof(e);
        if (logfmt::entryCrc(e, c.generation, payload) != e.crc)
            break;
        entries.emplace_back(cursor, extent);
        cursor += extent;
    }
    for (std::size_t i = 0; i + 1 < entries.size(); ++i)
        addRange(out, area + entries[i].first, entries[i].second);
    return out;
}

/**
 * Boundary tags and free-list links from a guarded tag walk. Must run
 * on a *recovered* image: a mid-transaction arena is legitimately
 * torn, and a walk over it would target pre-image payload bytes.
 */
std::vector<Bytes>
allocatorMetaTargets(const std::vector<std::uint8_t> &image)
{
    std::vector<Bytes> out;
    PoolHeader h;
    if (!readAt(image, 0, h) || h.magic != PoolHeader::kMagic)
        return out;
    if (h.arenaStart >= image.size() || h.size != image.size())
        return out;

    Bytes b = h.arenaStart + 8;
    while (b + PoolAllocator::kMinBlock <= h.size) {
        std::uint64_t tag;
        if (!readAt(image, b, tag))
            break;
        const Bytes size = tag & ~std::uint64_t{1};
        const bool allocated = (tag & 1) != 0;
        if (size < PoolAllocator::kMinBlock ||
            size % PoolAllocator::kAlign != 0 || size > h.size - b)
            break; // damaged or unparseable: stop, don't guess
        addRange(out, b, 8);            // header tag
        addRange(out, b + size - 8, 8); // footer tag
        if (!allocated)
            addRange(out, b + 8, 16);   // nextFree, prevFree
        b += size;
    }
    return out;
}

} // namespace

std::vector<Bytes>
MediaFaultModel::targets(const std::vector<std::uint8_t> &image,
                         FaultRegion region)
{
    switch (region) {
      case FaultRegion::Header:        return headerTargets(image);
      case FaultRegion::UndoLog:       return undoLogTargets(image);
      case FaultRegion::AllocatorMeta:
        return allocatorMetaTargets(image);
    }
    return {};
}

std::vector<InjectedByte>
MediaFaultModel::corrupt(std::vector<std::uint8_t> &image,
                         const std::vector<std::uint8_t> &baseline,
                         const std::vector<Bytes> &targets) const
{
    std::vector<InjectedByte> changed;
    if (targets.empty())
        return changed;

    std::uint64_t rng = spec_.seed;
    const auto touch = [&](Bytes off, std::uint8_t value) {
        if (off >= image.size() || image[off] == value)
            return;
        changed.push_back(InjectedByte{off, image[off], value});
        image[off] = value;
    };

    // Several kinds can be no-ops on a given byte (stuck-at-zero on a
    // zero byte, a revert to an identical baseline): retry across the
    // target set a bounded number of times before giving up.
    const std::size_t attempts = targets.size();
    switch (spec_.kind) {
      case MediaFaultKind::BitFlip: {
        const Bytes t = targets[mix(rng) % targets.size()];
        touch(t, image[t] ^ static_cast<std::uint8_t>(
                                1u << (mix(rng) % 8)));
        break;
      }
      case MediaFaultKind::MultiBitFlip: {
        // A multi-bit upset within one byte. Deliberately NOT spread
        // across independent bytes: independent flips could land on a
        // tag and its mirror footer identically, manufacturing a
        // consistent-but-wrong arena no checker could ever catch.
        const Bytes t = targets[mix(rng) % targets.size()];
        std::uint8_t mask = 0;
        while (__builtin_popcount(mask) < 3)
            mask |= static_cast<std::uint8_t>(1u << (mix(rng) % 8));
        touch(t, image[t] ^ mask);
        break;
      }
      case MediaFaultKind::StuckAtZero:
      case MediaFaultKind::StuckAtOne: {
        const std::uint8_t v =
            spec_.kind == MediaFaultKind::StuckAtZero ? 0x00 : 0xFF;
        for (std::size_t a = 0; a < attempts && changed.empty(); ++a)
            touch(targets[mix(rng) % targets.size()], v);
        break;
      }
      case MediaFaultKind::TornLine:
      case MediaFaultKind::DroppedFlush: {
        upr_assert_msg(baseline.size() == image.size(),
                       "torn-line faults need the strict crash image "
                       "as a baseline");
        // Revert a line (or the seed-chosen half of it) to the bytes
        // that were certainly durable — a write the media claimed to
        // accept but never kept.
        for (std::size_t a = 0; a < attempts && changed.empty(); ++a) {
            const Bytes t = targets[mix(rng) % targets.size()];
            Bytes from = t & ~(Backing::kLineBytes - 1);
            Bytes len = Backing::kLineBytes;
            if (spec_.kind == MediaFaultKind::TornLine) {
                len = Backing::kLineBytes / 2;
                if (mix(rng) & 1)
                    from += len;
            }
            for (Bytes o = from; o < from + len && o < image.size();
                 ++o)
                touch(o, baseline[o]);
        }
        break;
      }
    }

    if (!changed.empty()) {
        FaultStats::instance().injected.add(1);
        obs::traceEvent(obs::EventKind::MediaFault,
                        static_cast<std::uint64_t>(spec_.kind),
                        changed.front().offset);
    }
    return changed;
}

} // namespace upr

/**
 * @file
 * Generic set-associative array with true-LRU replacement, shared by
 * the cache, TLB, POLB, and VALB models.
 *
 * A lookup is by Tag (whatever uniquely identifies a block/page/entry
 * after the set index is removed); each entry can carry a small
 * payload for structures that translate (POLB stores a base address).
 */

#ifndef UPR_ARCH_SET_ASSOC_HH
#define UPR_ARCH_SET_ASSOC_HH

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/bits.hh"
#include "common/logging.hh"

namespace upr
{

/**
 * @tparam Tag lookup key within a set (an unsigned integer type)
 * @tparam Payload per-entry data (use a tiny struct or std::monostate)
 *
 * Storage is struct-of-arrays: a lookup is a probe of every simulated
 * memory access (TLB and three cache levels each scan one set), so the
 * scan walks a dense array of 64-bit keys instead of striding over
 * full entries; LRU stamps and payloads are only touched on a hit or
 * fill. The valid bit is folded into both: an invalid way holds key
 * kEmpty (all ones: the 64-bit tags in use are shifted addresses, so
 * never that; probes and fills assert it) and stamp 0, below every
 * stamp a fill or hit assigns.
 */
template <typename Tag, typename Payload>
class SetAssocArray
{
    static_assert(std::is_unsigned_v<Tag> && sizeof(Tag) <= 8,
                  "tags are unsigned integers of at most 64 bits");

  public:
    /**
     * @param sets number of sets (power of two)
     * @param ways associativity
     */
    SetAssocArray(std::uint32_t sets, std::uint32_t ways)
        : sets_(sets), ways_(ways), keys_(sets * ways, kEmpty),
          payloads_(sets * ways), lastUse_(sets * ways, 0)
    {
        // Non-power-of-two set counts are allowed (e.g. the 384-set
        // L2 TLB); callers index with modulo in that case.
        upr_assert(sets >= 1);
        upr_assert(ways >= 1);
    }

    /** Number of sets. */
    std::uint32_t sets() const { return sets_; }
    /** Associativity. */
    std::uint32_t ways() const { return ways_; }

    /**
     * Look up @p tag in set @p set_index; updates LRU on hit.
     * @return payload pointer on hit, nullptr on miss
     */
    Payload *
    lookup(std::uint32_t set_index, Tag tag)
    {
        const std::size_t i = findEntry(set_index, tag);
        if (i == kMiss)
            return nullptr;
        lastUse_[i] = ++clock_;
        return &payloads_[i];
    }

    /** Lookup without LRU update (for inspection in tests). */
    const Payload *
    peek(std::uint32_t set_index, Tag tag) const
    {
        const std::size_t i = findEntry(set_index, tag);
        return i == kMiss ? nullptr : &payloads_[i];
    }

    /** Where insert() put an entry. */
    struct Fill
    {
        Payload *slot; //!< the filled entry's payload
        bool evicted;  //!< a valid entry was displaced
    };

    /**
     * Insert @p tag with @p payload into set @p set_index, evicting
     * the LRU way if the set is full.
     *
     * The victim is the first way with the smallest stamp: the first
     * invalid way if there is one (stamp 0), else the least recently
     * used way. The pass over the ways does not branch on their data.
     *
     * @param evicted_out if non-null, receives the evicted payload
     */
    Fill
    insert(std::uint32_t set_index, Tag tag, Payload payload,
           Payload *evicted_out = nullptr)
    {
        upr_assert(set_index < sets_);
        upr_assert(std::uint64_t{tag} != kEmpty);
        const std::size_t base = std::size_t{set_index} * ways_;
        std::size_t victim = base;
        std::uint64_t oldest = lastUse_[base];
        for (std::size_t i = base + 1; i < base + ways_; ++i) {
            const bool older = lastUse_[i] < oldest;
            victim = older ? i : victim;
            oldest = older ? lastUse_[i] : oldest;
        }
        const bool evicted = oldest != 0;
        if (evicted && evicted_out)
            *evicted_out = payloads_[victim];
        keys_[victim] = tag;
        payloads_[victim] = payload;
        lastUse_[victim] = ++clock_;
        return {&payloads_[victim], evicted};
    }

    /** Invalidate a single entry if present. */
    void
    invalidate(std::uint32_t set_index, Tag tag)
    {
        const std::size_t i = findEntry(set_index, tag);
        if (i != kMiss) {
            keys_[i] = kEmpty;
            lastUse_[i] = 0;
        }
    }

    /** Invalidate everything (epoch change / shootdown). */
    void
    invalidateAll()
    {
        std::fill(keys_.begin(), keys_.end(), kEmpty);
        std::fill(lastUse_.begin(), lastUse_.end(), std::uint64_t{0});
    }

    /** Visit every valid entry: cb(set, tag, payload). */
    template <typename Cb>
    void
    forEachValid(Cb &&cb) const
    {
        for (std::uint32_t s = 0; s < sets_; ++s) {
            for (std::uint32_t w = 0; w < ways_; ++w) {
                const std::size_t i = std::size_t{s} * ways_ + w;
                if (keys_[i] != kEmpty)
                    cb(s, static_cast<Tag>(keys_[i]), payloads_[i]);
            }
        }
    }

    /** Count of valid entries. */
    std::uint32_t
    validCount() const
    {
        std::uint32_t n = 0;
        for (const std::uint64_t key : keys_)
            n += key != kEmpty;
        return n;
    }

  private:
    static constexpr std::size_t kMiss = ~std::size_t{0};
    static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

    /**
     * Index of the valid way holding @p tag, or kMiss. A fixed pass
     * over every way that selects the match by a conditional move, not
     * an early exit: each probe sits on the simulated memory path, and
     * where the match lies is data the host cannot predict. Ways are
     * visited last to first so the first match wins.
     */
    std::size_t
    findEntry(std::uint32_t set_index, Tag tag) const
    {
        upr_assert(set_index < sets_);
        const std::uint64_t key = tag;
        upr_assert(key != kEmpty);
        const std::size_t base = std::size_t{set_index} * ways_;
        std::size_t hit = kMiss;
        for (std::size_t i = base + ways_; i-- > base;)
            hit = keys_[i] == key ? i : hit;
        return hit;
    }

    std::uint32_t sets_;
    std::uint32_t ways_;
    /** The tag held by each way, or kEmpty. */
    std::vector<std::uint64_t> keys_;
    std::vector<Payload> payloads_;
    /** LRU stamp per way; 0 for an invalid way. */
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
};

} // namespace upr

#endif // UPR_ARCH_SET_ASSOC_HH

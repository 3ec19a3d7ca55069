/**
 * @file
 * Two-level data TLB model (paper Table IV: 64-entry 4-way L1 dTLB at
 * 1 cycle; 1536-entry 4-way shared L2 TLB at 7 cycles; 30-cycle walk).
 *
 * Functional translation is the AddressSpace's job; the TLB only
 * produces latency and hit/miss statistics on page granularity.
 */

#ifndef UPR_ARCH_TLB_HH
#define UPR_ARCH_TLB_HH

#include "arch/params.hh"
#include "arch/set_assoc.hh"
#include "common/stats.hh"
#include "mem/address_space.hh"

namespace upr
{

/** One TLB level over 4 KiB pages. */
class Tlb
{
  public:
    Tlb(const std::string &name, std::uint32_t entries,
        std::uint32_t ways)
        : sets_(entries / ways),
          setMask_(isPow2(sets_) ? sets_ - 1 : 0),
          array_(sets_, ways), stats_(name)
    {
        stats_.registerCounter("hits", hits_, "TLB hits");
        stats_.registerCounter("misses", misses_, "TLB misses");
    }

    /** Probe (and fill on miss). @return true on hit. */
    bool
    access(SimAddr va)
    {
        const std::uint64_t vpn = va / Layout::kPageSize;
        // Same-page memo, exact for the reason Cache::access gives.
        if (vpn == memoVpn_) {
            ++hits_;
            return true;
        }
        memoVpn_ = vpn;
        // Modulo indexing with the full VPN as tag supports the
        // non-power-of-two set counts real TLBs use (384-set STLB);
        // power-of-two set counts (the L1 dTLB, probed every access)
        // take the mask instead of a hardware divide.
        const std::uint32_t set = static_cast<std::uint32_t>(
            setMask_ ? (vpn & setMask_) : vpn % sets_);
        const std::uint64_t tag = vpn;
        if (array_.lookup(set, tag)) {
            ++hits_;
            return true;
        }
        ++misses_;
        array_.insert(set, tag, Empty{});
        return false;
    }

    /** Drop all translations (context switch / shootdown). */
    void
    flush()
    {
        array_.invalidateAll();
        memoVpn_ = kNoVpn;
    }

    /** Zero the counters. */
    void resetStats() { stats_.resetAll(); }

    const StatGroup &stats() const { return stats_; }
    std::uint64_t misses() const { return misses_.value(); }

  private:
    struct Empty {};

    /** No VPN has every bit set (pages are 4 KiB). */
    static constexpr std::uint64_t kNoVpn = ~std::uint64_t{0};

    std::uint32_t sets_;
    /** sets_ - 1 when sets_ is a power of two, else 0 (use modulo). */
    std::uint32_t setMask_;
    SetAssocArray<std::uint64_t, Empty> array_;
    /** VPN of the previous access (kNoVpn after a flush). */
    std::uint64_t memoVpn_ = kNoVpn;
    StatGroup stats_;
    Counter hits_;
    Counter misses_;
};

/** L1 + L2 TLB plus page walker, returning translation latency. */
class TlbHierarchy
{
  public:
    explicit TlbHierarchy(const MachineParams &params)
        : params_(params),
          l1_("dtlb", params.l1TlbEntries, params.l1TlbWays),
          l2_("stlb", params.l2TlbEntries, params.l2TlbWays)
    {}

    /** Translate (timing only). @return latency in cycles. */
    Cycles
    access(SimAddr va)
    {
        Cycles lat = params_.l1TlbLatency;
        if (l1_.access(va))
            return lat;
        lat += params_.l2TlbHitLatency;
        if (l2_.access(va))
            return lat;
        lat += params_.pageWalkLatency;
        ++walks_;
        return lat;
    }

    /** Drop all translations in both levels. */
    void
    flushAll()
    {
        l1_.flush();
        l2_.flush();
    }

    /** Zero all counters. */
    void
    resetStats()
    {
        l1_.resetStats();
        l2_.resetStats();
        walks_.reset();
    }

    Tlb &l1() { return l1_; }
    Tlb &l2() { return l2_; }
    std::uint64_t walks() const { return walks_.value(); }

  private:
    const MachineParams &params_;
    Tlb l1_;
    Tlb l2_;
    Counter walks_;
};

} // namespace upr

#endif // UPR_ARCH_TLB_HH

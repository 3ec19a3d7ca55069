/**
 * @file
 * gshare branch predictor model.
 *
 * The SW version of user-transparent persistent references inserts
 * dynamic-check branches at pointer operations; the paper's Fig 13
 * shows those checks inflate branch mispredictions by 6.7-2944x. To
 * reproduce that honestly, check branches are fed through this real
 * predictor with their real outcomes (a pointer that is persistent in
 * this dynamic instance and volatile in the next genuinely flips the
 * branch), rather than assigning a fixed misprediction rate.
 */

#ifndef UPR_ARCH_BRANCH_HH
#define UPR_ARCH_BRANCH_HH

#include <vector>

#include "arch/params.hh"
#include "common/bits.hh"
#include "common/stats.hh"

namespace upr
{

/** gshare: global history XOR site id indexes 2-bit counters. */
class BranchPredictor
{
  public:
    explicit BranchPredictor(const MachineParams &params)
        : tableMask_(params.branchTableEntries - 1),
          historyMask_((1ULL << params.branchHistoryBits) - 1),
          table_(params.branchTableEntries, 2 /* weakly not-taken */),
          stats_("bpred")
    {
        upr_assert(isPow2(params.branchTableEntries));
        stats_.registerCounter("branches", branches_,
                               "conditional branches executed");
        stats_.registerCounter("mispredicts", mispredicts_,
                               "branch mispredictions");
    }

    /**
     * Predict-and-update for one dynamic branch.
     *
     * @param site static identifier of the branch (acts as the PC)
     * @param taken actual outcome
     * @return true if the prediction was wrong
     */
    bool
    branch(std::uint64_t site, bool taken)
    {
        ++branches_;
        const std::size_t idx =
            static_cast<std::size_t>((site ^ history_) & tableMask_);
        std::uint8_t &ctr = table_[idx];
        const unsigned c = ctr;
        const unsigned t = taken;
        // Saturating 2-bit update without a data-dependent branch:
        // taken counts up unless at 3, not-taken down unless at 0.
        ctr = static_cast<std::uint8_t>(c + (t & (c < 3)) -
                                        ((t ^ 1) & (c > 0)));
        history_ = ((history_ << 1) | t) & historyMask_;

        const bool wrong = (c >> 1) != t;
        mispredicts_ += wrong;
        return wrong;
    }

    /** Zero the counters (tables stay trained). */
    void resetStats() { stats_.resetAll(); }

    std::uint64_t branches() const { return branches_.value(); }
    std::uint64_t mispredicts() const { return mispredicts_.value(); }
    const StatGroup &stats() const { return stats_; }

  private:
    std::uint64_t tableMask_;
    std::uint64_t historyMask_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> table_;

    StatGroup stats_;
    Counter branches_;
    Counter mispredicts_;
};

} // namespace upr

#endif // UPR_ARCH_BRANCH_HH

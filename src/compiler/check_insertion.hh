/**
 * @file
 * Check insertion (the back half of the Sec V-B compiler method):
 * given the inference result, decide per instruction which operands
 * still need a dynamic determineX/determineY check and which get a
 * statically planted conversion (or nothing).
 *
 * The summary statistics reproduce the paper's headline number: what
 * fraction of would-be dynamic checks inference eliminates (paper:
 * ~42% of checks remain in their benchmarks).
 */

#ifndef UPR_COMPILER_CHECK_INSERTION_HH
#define UPR_COMPILER_CHECK_INSERTION_HH

#include "compiler/ir.hh"
#include "compiler/type_inference.hh"

namespace upr
{

/**
 * How a store inside a transaction must be logged, as proven by the
 * persistency analysis (analysis/persistency.hh). Baked into the
 * lowered code and honored by both transaction engines.
 */
enum class LogMode : std::uint8_t
{
    /** No proof: full undo pre-image / redo journal entry. */
    MustLog,
    /**
     * The target was pmalloc'd inside the enclosing transaction, so
     * its pre-image is unreachable garbage: undo skips the log entry
     * entirely; redo applies it write-through before the commit
     * fence instead of journaling it.
     */
    ElideFreshAlloc,
    /**
     * An earlier store in the same transaction already logged this
     * exact location on every path here: undo skips the duplicate
     * pre-image (the first entry's rollback restores it).
     */
    ElideDominatedWrite,
};

const char *logModeName(LogMode m);

/** Per-instruction annotation produced by check insertion. */
struct InstPlan
{
    /** The address operand needs a dynamic determineY. */
    bool addrDynamic = false;
    /** The address operand statically needs ra2va (kind == Ra). */
    bool addrStaticConvert = false;
    /**
     * The address operand was already checked earlier in this basic
     * block (flow-sensitive refinement): convert per its known form,
     * no new check branch. Sound — a value's *format* never changes,
     * only translations are stateful, and those are still performed
     * per use (contrast the unsound value numbering of Fig 10).
     */
    bool addrRefined = false;
    /** The stored pointer value needs a dynamic determineY. */
    bool valueDynamic = false;
    /** The destination medium needs a dynamic determineX. */
    bool destDynamic = false;
    /**
     * A determineX the elision pass proved redundant: the address
     * resolution at this same storep already reveals the medium
     * (bit 47 of the resolved VA), so no classification check runs.
     * The interpreter still preserves the dynamic path's strict
     * storeP fault behavior.
     */
    bool destElided = false;
    /** First comparison/cast pointer operand needs a dynamic check. */
    bool cmp0Dynamic = false;
    /** Second comparison pointer operand needs a dynamic check. */
    bool cmp1Dynamic = false;
    /**
     * Logging obligation of this store/storep when it hits NVM inside
     * a transaction (persistency analysis proof; MustLog when the
     * analysis did not run or could not prove anything).
     */
    LogMode logMode = LogMode::MustLog;

    /** Total dynamic checks this instruction performs per execution. */
    unsigned
    dynamicChecks() const
    {
        return (addrDynamic ? 1 : 0) + (valueDynamic ? 1 : 0) +
               (destDynamic ? 1 : 0) + (cmp0Dynamic ? 1 : 0) +
               (cmp1Dynamic ? 1 : 0);
    }
};

/** Plan for one function: parallel to blocks/instructions. */
struct FunctionPlan
{
    std::vector<std::vector<InstPlan>> perBlock;

    const InstPlan &
    at(ir::BlockId b, std::size_t i) const
    {
        return perBlock.at(b).at(i);
    }
};

/** Whole-module plan + static statistics. */
struct CheckPlan
{
    std::map<std::string, FunctionPlan> perFunction;

    /** Check sites if every pointer-kind question were dynamic. */
    std::uint64_t totalSites = 0;
    /** Sites still requiring a dynamic check after inference. */
    std::uint64_t remainingSites = 0;
    /** Sites downgraded to check-free by block-local refinement. */
    std::uint64_t refinedSites = 0;
    /** Sites deleted by the proof-driven elision pass (elision.hh). */
    std::uint64_t elidedSites = 0;

    /** Fraction of checks the inference removed. */
    double
    eliminatedFraction() const
    {
        if (totalSites == 0)
            return 0.0;
        return 1.0 - static_cast<double>(remainingSites) /
                         static_cast<double>(totalSites);
    }
};

/**
 * Render a Fig 9-style annotated listing: the module's instructions
 * with the checks/conversions the plan inserted at each site
 * ([checkY], [ra2va], [refined], [checkX] markers).
 */
std::string printAnnotated(const ir::Module &mod, const CheckPlan &plan);

/**
 * Compute the plan.
 * @param inference result of inferPointerKinds (pass nullptr to plan
 *        as if inference were disabled: every site dynamic — the
 *        inference ablation's baseline in the `bench_harness paper`
 *        suite)
 * @param flow_refine enable block-local refinement: the second and
 *        later check sites of one value within a basic block reuse
 *        the first check's outcome (tail-duplication model) and pay
 *        only the conversion
 */
CheckPlan insertChecks(const ir::Module &mod,
                       const InferenceResult *inference,
                       bool flow_refine = false);

} // namespace upr

#endif // UPR_COMPILER_CHECK_INSERTION_HH

/**
 * @file
 * uprlint: static Fig-4 conformance linter for mini-IR files.
 *
 *   uprlint [options] file.ir...
 *
 * Pipeline per file: parse (verifier runs automatically inside the
 * parser), pointer-kind inference, branch-sensitive flow analysis,
 * Fig-4 conformance classification, and — with --report-elision —
 * the proof-driven check-elision pass including its bit-identical
 * execution validation when the module has a runnable @main.
 *
 * Options:
 *   --json             machine-readable output (one JSON document),
 *                      including the per-site elision records the
 *                      fast-path lowering consumes (site id, proof
 *                      kind, retained/elided status)
 *   --report-elision   run the elision pass and print its proofs
 *   --persistency      run the transactional persistency-ordering
 *                      analysis (durability lattice) even on modules
 *                      with no tx ops; modules that use txbegin get
 *                      it automatically. Adds located persist-*
 *                      diagnostics and a per-store LogMode proof
 *                      (must-log / elide-fresh-alloc /
 *                      elide-dominated-write) to the records
 *   --exec-tier TIER   validate elision through the direct-threaded
 *                      FastExecutor instead of the Interpreter;
 *                      TIER is "model" or "native"
 *   --whole-program    treat the module as closed: parameter kinds
 *                      come only from call sites in the module
 *   --flow-refine      enable block-local refinement in the base
 *                      check plan before elision
 *   --                 end of options; every later argument is a
 *                      file, even one starting with '-'
 *
 * Exit status: 0 clean (warnings allowed), 1 on parse/verify errors
 * or diagnosed UB.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/diag.hh"
#include "common/fault.hh"
#include "common/json.hh"
#include "compiler/analysis/elision.hh"
#include "compiler/analysis/fig4_conformance.hh"
#include "compiler/analysis/persistency.hh"
#include "compiler/exec_fast.hh"
#include "compiler/ir_parser.hh"

using namespace upr;

namespace
{

struct Options
{
    bool json = false;
    bool reportElision = false;
    bool persistency = false;
    bool wholeProgram = false;
    bool flowRefine = false;
    /** Validate through FastExecutor instead of the Interpreter. */
    bool execTierSet = false;
    ExecTier execTier = ExecTier::Model;
    std::vector<std::string> files;
};

/**
 * One check site of the final plan, as the stable machine-readable
 * contract `--json` publishes for the fast-path lowering: the site
 * id ("fn:block:inst:role"), its post-elision status, and the proof
 * rule that elided it (empty when none applies).
 */
struct SiteRecord
{
    std::string id;
    int line = 0;
    int col = 0;
    std::string role;
    /** retained / elided / refined / static-convert / static. */
    std::string status;
    std::string proof;
    /** Store logging proof (persistency runs only), else empty. */
    std::string logMode;
};

/** Per-file lint outcome (for JSON assembly). */
struct FileResult
{
    std::string file;
    bool parseFailed = false;
    std::string parseError;
    DiagnosticEngine diags;
    ConformanceReport report;
    CheckPlan plan;
    ElisionResult elision;
    std::vector<SiteRecord> siteRecords;
    bool validated = false;
    ElisionValidation validation;
    std::vector<std::uint64_t> validationArgs;
    bool hasErrors = false;
    /** Persistency analysis ran (tx module or --persistency). */
    bool persistencyRan = false;
    PersistencyResult persistency;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: uprlint [--json] [--report-elision] "
                 "[--persistency] [--exec-tier model|native] "
                 "[--whole-program] [--flow-refine] [--] "
                 "file.ir...\n");
    return 2;
}

/** Enumerate the plan's check sites in program order. */
void
collectSiteRecords(const ir::Module &mod, FileResult &r)
{
    std::map<std::string, std::string> proof_kind;
    for (const ElisionProof &p : r.elision.proofs) {
        proof_kind[p.function + ":" + std::to_string(p.block) + ":" +
                   std::to_string(p.instIdx) + ":" + p.role] = p.kind;
    }
    for (const auto &fptr : mod.functions) {
        const ir::Function &fn = *fptr;
        const FunctionPlan &fp = r.plan.perFunction.at(fn.name);
        for (ir::BlockId b = 0; b < fn.blocks.size(); ++b) {
            for (std::size_t i = 0; i < fn.blocks[b].insts.size();
                 ++i) {
                const ir::Inst &in = fn.blocks[b].insts[i];
                const InstPlan &ip = fp.at(b, i);
                auto add = [&](const char *role, bool dynamic,
                               bool refined, bool convert) {
                    SiteRecord rec;
                    rec.id = fn.name + ":" + std::to_string(b) + ":" +
                             std::to_string(i) + ":" + role;
                    rec.line = in.loc.line;
                    rec.col = in.loc.col;
                    rec.role = role;
                    const auto it = proof_kind.find(rec.id);
                    if (it != proof_kind.end())
                        rec.proof = it->second;
                    rec.status = dynamic ? "retained"
                        : it != proof_kind.end() ? "elided"
                        : refined ? "refined"
                        : convert ? "static-convert"
                        : "static";
                    r.siteRecords.push_back(std::move(rec));
                };
                switch (in.op) {
                  case ir::Op::Load:
                  case ir::Op::Free:
                  case ir::Op::Pfree:
                  case ir::Op::Store:
                  case ir::Op::StoreP:
                    add("addr", ip.addrDynamic, ip.addrRefined,
                        ip.addrStaticConvert);
                    if (r.persistencyRan &&
                        (in.op == ir::Op::Store ||
                         in.op == ir::Op::StoreP)) {
                        r.siteRecords.back().logMode =
                            logModeName(ip.logMode);
                    }
                    if (in.op == ir::Op::StoreP) {
                        add("dest", ip.destDynamic, false, false);
                        add("value", ip.valueDynamic, false, false);
                    }
                    break;
                  case ir::Op::PtrToInt:
                    add("op0", ip.cmp0Dynamic, false, false);
                    break;
                  case ir::Op::Eq:
                  case ir::Op::Lt:
                    if (fn.valueTypes[in.operands[0]] ==
                        ir::Type::Ptr) {
                        add("op0", ip.cmp0Dynamic, false, false);
                    }
                    if (fn.valueTypes[in.operands[1]] ==
                        ir::Type::Ptr) {
                        add("op1", ip.cmp1Dynamic, false, false);
                    }
                    break;
                  default:
                    break;
                }
            }
        }
    }
}

FileResult
lintFile(const std::string &path, const Options &opt)
{
    FileResult r;
    r.file = path;

    std::ifstream is(path);
    if (!is) {
        r.parseFailed = true;
        r.parseError = "cannot open file";
        r.hasErrors = true;
        return r;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    ir::Module mod;
    try {
        mod = ir::parseModule(buf.str());
    } catch (const Fault &f) {
        r.parseFailed = true;
        r.parseError = f.what();
        r.hasErrors = true;
        return r;
    }

    const InferenceResult inf =
        inferPointerKinds(mod, !opt.wholeProgram);
    const FlowAnalysis flow(mod, inf);
    r.report = checkFig4Conformance(mod, flow, r.diags);
    r.diags.sortByLocation();
    r.hasErrors = r.diags.hasErrors();

    r.plan = insertChecks(mod, &inf, opt.flowRefine);

    // The persistency lattice runs automatically on any module that
    // uses the tx opcodes; --persistency forces the pass (and its
    // summary/records) on modules without them, where it reports
    // zero findings — diagnostics stay scoped to functions that
    // contain tx opcodes. It writes the per-store LogMode proofs
    // into the plan the lowering bakes.
    if (opt.persistency || moduleUsesTx(mod)) {
        r.persistency = analyzePersistency(mod, flow, &r.plan);
        r.persistencyRan = true;
        for (const Diagnostic &d : r.persistency.diags.all()) {
            r.diags.report(d.severity, d.code, d.loc, d.message,
                           d.function);
        }
        r.diags.sortByLocation();
        r.hasErrors = r.hasErrors || r.diags.hasErrors();
    }

    if (opt.reportElision) {
        const CheckPlan before = r.plan;
        r.elision = elideChecks(mod, flow, r.plan);

        // Validate on @main when it is runnable with integer args.
        const ir::Function *entry = mod.find("main");
        bool runnable = entry != nullptr;
        if (entry) {
            for (ir::Type t : entry->paramTypes)
                runnable = runnable && t == ir::Type::I64;
        }
        if (runnable) {
            r.validationArgs.assign(entry->paramTypes.size(), 8);
            try {
                r.validation = opt.execTierSet
                    ? validateElisionTier(mod, before, r.plan,
                                          "main", r.validationArgs,
                                          opt.execTier)
                    : validateElision(mod, before, r.plan, "main",
                                      r.validationArgs);
                r.validated = true;
                if (!r.validation.bitIdentical)
                    r.hasErrors = true;
            } catch (const Fault &f) {
                // The program faults identically under both plans
                // only if the fault is plan-independent; treat any
                // fault during validation as "not validated".
                r.validated = false;
            }
        }
    }
    collectSiteRecords(mod, r);
    return r;
}

void
printText(const FileResult &r, const Options &opt)
{
    if (r.parseFailed) {
        std::printf("%s: error: %s\n", r.file.c_str(),
                    r.parseError.c_str());
        return;
    }
    std::printf("%s: %llu site(s): %llu proved-safe, %llu "
                "needs-dynamic-check, %llu diagnosed-UB\n",
                r.file.c_str(),
                (unsigned long long)r.report.sites.size(),
                (unsigned long long)r.report.provedSafe,
                (unsigned long long)r.report.needsDynamic,
                (unsigned long long)r.report.diagnosedUB);
    std::fputs(r.diags.render(r.file).c_str(), stdout);

    if (r.persistencyRan) {
        std::printf("%s: persistency: %llu tx store(s), %llu "
                    "finding(s), %llu log elision(s) "
                    "(%llu fresh-alloc, %llu dominated-write)\n",
                    r.file.c_str(),
                    (unsigned long long)r.persistency.txStores,
                    (unsigned long long)r.persistency.findingCount(),
                    (unsigned long long)r.persistency.logElided,
                    (unsigned long long)r.persistency.elidedFresh,
                    (unsigned long long)r.persistency.elidedDominated);
    }

    if (opt.reportElision) {
        std::printf("%s: elision: %llu check(s) elided, %llu of "
                    "%llu site(s) remain dynamic\n",
                    r.file.c_str(),
                    (unsigned long long)r.plan.elidedSites,
                    (unsigned long long)r.plan.remainingSites,
                    (unsigned long long)r.plan.totalSites);
        for (const ElisionProof &p : r.elision.proofs) {
            std::printf("%s:%s: note: [elide-%s] %s [@%s]\n",
                        r.file.c_str(), p.loc.str().c_str(),
                        p.role.c_str(), p.reason.c_str(),
                        p.function.c_str());
        }
        if (r.validated) {
            char tier_tag[32] = "";
            if (opt.execTierSet) {
                std::snprintf(tier_tag, sizeof tier_tag,
                              " (%s tier)",
                              execTierName(opt.execTier));
            }
            std::printf(
                "%s: validation%s: @main result %llu == %llu, "
                "dynamic checks %llu -> %llu, bit-identical: %s\n",
                r.file.c_str(), tier_tag,
                (unsigned long long)r.validation.resultBefore,
                (unsigned long long)r.validation.resultAfter,
                (unsigned long long)r.validation.checksBefore,
                (unsigned long long)r.validation.checksAfter,
                r.validation.bitIdentical ? "yes" : "NO");
        }
    }
}

void
printJson(const std::vector<FileResult> &results, const Options &opt)
{
    JsonWriter json;
    json.beginArray();
    for (const FileResult &r : results) {
        json.beginObject();
        json.kv("file", r.file);
        if (r.parseFailed) {
            json.kv("error", r.parseError);
            json.end();
            continue;
        }
        json.key("summary").beginObject(JsonWriter::Inline);
        json.kv("sites", r.report.sites.size());
        json.kv("provedSafe", r.report.provedSafe);
        json.kv("needsDynamic", r.report.needsDynamic);
        json.kv("diagnosedUB", r.report.diagnosedUB);
        json.kv("totalSites", r.plan.totalSites);
        json.kv("remainingSites", r.plan.remainingSites);
        json.kv("refinedSites", r.plan.refinedSites);
        json.kv("elidedSites", r.plan.elidedSites);
        json.end();
        if (r.persistencyRan) {
            json.key("persistency").beginObject(JsonWriter::Inline);
            json.kv("txStores", r.persistency.txStores);
            json.kv("persistencyDiags", r.persistency.findingCount());
            json.kv("logElided", r.persistency.logElided);
            json.kv("elidedFresh", r.persistency.elidedFresh);
            json.kv("elidedDominated", r.persistency.elidedDominated);
            json.end();
        }
        json.key("siteRecords").beginArray();
        for (const SiteRecord &sr : r.siteRecords) {
            json.beginObject(JsonWriter::Inline);
            json.kv("id", sr.id);
            json.kv("line", sr.line);
            json.kv("col", sr.col);
            json.kv("role", sr.role);
            json.kv("status", sr.status);
            json.kv("proof", sr.proof);
            if (!sr.logMode.empty())
                json.kv("logMode", sr.logMode);
            json.end();
        }
        json.end();
        json.key("diagnostics");
        r.diags.renderJson(json);
        if (opt.reportElision) {
            json.key("elision").beginObject();
            json.kv("elided", r.elision.elidedSites);
            json.key("proofs").beginArray();
            for (const ElisionProof &pr : r.elision.proofs) {
                json.beginObject(JsonWriter::Inline);
                json.kv("function", pr.function);
                json.kv("line", pr.loc.line);
                json.kv("col", pr.loc.col);
                json.kv("role", pr.role);
                json.kv("reason", pr.reason);
                json.end();
            }
            json.end();
            if (r.validated) {
                if (opt.execTierSet)
                    json.kv("execTier", execTierName(opt.execTier));
                json.key("validation").beginObject(JsonWriter::Inline);
                json.kv("bitIdentical", r.validation.bitIdentical);
                json.kv("resultBefore", r.validation.resultBefore);
                json.kv("resultAfter", r.validation.resultAfter);
                json.kv("checksBefore", r.validation.checksBefore);
                json.kv("checksAfter", r.validation.checksAfter);
                json.end();
            }
            json.end();
        }
        json.end();
    }
    json.end();
    std::printf("%s\n", json.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool options_done = false;
    for (int i = 1; i < argc; ++i) {
        if (options_done)
            opt.files.push_back(argv[i]);
        else if (std::strcmp(argv[i], "--") == 0)
            options_done = true;
        else if (std::strcmp(argv[i], "--json") == 0)
            opt.json = true;
        else if (std::strcmp(argv[i], "--report-elision") == 0)
            opt.reportElision = true;
        else if (std::strcmp(argv[i], "--persistency") == 0)
            opt.persistency = true;
        else if (std::strcmp(argv[i], "--whole-program") == 0)
            opt.wholeProgram = true;
        else if (std::strcmp(argv[i], "--flow-refine") == 0)
            opt.flowRefine = true;
        else if (std::strcmp(argv[i], "--exec-tier") == 0) {
            if (i + 1 >= argc)
                return usage();
            const char *tier = argv[++i];
            if (std::strcmp(tier, "model") == 0)
                opt.execTier = ExecTier::Model;
            else if (std::strcmp(tier, "native") == 0)
                opt.execTier = ExecTier::Native;
            else
                return usage();
            opt.execTierSet = true;
        } else if (argv[i][0] == '-')
            return usage();
        else
            opt.files.push_back(argv[i]);
    }
    if (opt.files.empty())
        return usage();

    std::vector<FileResult> results;
    bool any_errors = false;
    for (const std::string &f : opt.files) {
        results.push_back(lintFile(f, opt));
        any_errors = any_errors || results.back().hasErrors;
    }

    if (opt.json) {
        printJson(results, opt);
    } else {
        for (const FileResult &r : results)
            printText(r, opt);
    }
    return any_errors ? 1 : 0;
}

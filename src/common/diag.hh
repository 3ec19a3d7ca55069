/**
 * @file
 * Structured diagnostics engine shared by the IR parser, the IR
 * verifier, and the Fig-4 conformance checker (uprlint).
 *
 * A Diagnostic carries a severity, a stable machine-readable code
 * (e.g. "fig4-mixed-storep"), the source location threaded through
 * the IR parser, and a human message. The engine collects, sorts,
 * and renders them either clang-style ("file:line:col: error: ...")
 * or as JSON for tooling.
 */

#ifndef UPR_COMMON_DIAG_HH
#define UPR_COMMON_DIAG_HH

#include <cstddef>
#include <string>
#include <vector>

namespace upr
{

class JsonWriter;

/** A position in an IR source file (1-based; 0 = unknown). */
struct SrcLoc
{
    int line = 0;
    int col = 0;

    bool known() const { return line > 0; }

    /** "12:3" or "?" when unknown. */
    std::string str() const;
};

/** How bad a diagnostic is. */
enum class DiagSeverity
{
    Note,    //!< supporting information
    Warning, //!< suspicious but not certainly wrong
    Error,   //!< the program is malformed or has UB
};

const char *diagSeverityName(DiagSeverity sev);

/** One finding. */
struct Diagnostic
{
    DiagSeverity severity = DiagSeverity::Error;
    /** Stable machine-readable code, kebab-case. */
    std::string code;
    /** Human-readable message (no trailing period/newline). */
    std::string message;
    /** Function context ("@name"), may be empty. */
    std::string function;
    SrcLoc loc;

    /** "12:3: error: [code] message [@fn]" */
    std::string render(const std::string &file = "") const;
};

/** Collects diagnostics across passes. */
class DiagnosticEngine
{
  public:
    void
    report(DiagSeverity sev, std::string code, SrcLoc loc,
           std::string message, std::string function = "")
    {
        diags_.push_back(Diagnostic{sev, std::move(code),
                                    std::move(message),
                                    std::move(function), loc});
    }

    void
    error(std::string code, SrcLoc loc, std::string message,
          std::string function = "")
    {
        report(DiagSeverity::Error, std::move(code), loc,
               std::move(message), std::move(function));
    }

    void
    warning(std::string code, SrcLoc loc, std::string message,
            std::string function = "")
    {
        report(DiagSeverity::Warning, std::move(code), loc,
               std::move(message), std::move(function));
    }

    void
    note(std::string code, SrcLoc loc, std::string message,
         std::string function = "")
    {
        report(DiagSeverity::Note, std::move(code), loc,
               std::move(message), std::move(function));
    }

    const std::vector<Diagnostic> &all() const { return diags_; }
    bool empty() const { return diags_.empty(); }
    std::size_t errorCount() const;
    std::size_t warningCount() const;
    bool hasErrors() const { return errorCount() > 0; }

    /** Stable order: by line, col, severity, code. */
    void sortByLocation();

    /** One rendered line per diagnostic, newline-terminated. */
    std::string render(const std::string &file = "") const;

    /** Write the diagnostics to @p json as an array value, one
     * single-line object per diagnostic. */
    void renderJson(JsonWriter &json) const;

    void clear() { diags_.clear(); }

  private:
    std::vector<Diagnostic> diags_;
};

} // namespace upr

#endif // UPR_COMMON_DIAG_HH

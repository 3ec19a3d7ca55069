#include "common/diag.hh"

#include <algorithm>

#include "common/json.hh"

namespace upr
{

std::string
SrcLoc::str() const
{
    if (!known())
        return "?";
    return std::to_string(line) + ":" + std::to_string(col);
}

const char *
diagSeverityName(DiagSeverity sev)
{
    switch (sev) {
      case DiagSeverity::Note:    return "note";
      case DiagSeverity::Warning: return "warning";
      case DiagSeverity::Error:   return "error";
    }
    return "?";
}

std::string
Diagnostic::render(const std::string &file) const
{
    std::string out;
    if (!file.empty())
        out += file + ":";
    if (loc.known())
        out += loc.str() + ":";
    if (!out.empty())
        out += " ";
    out += diagSeverityName(severity);
    out += ": [" + code + "] " + message;
    if (!function.empty())
        out += " [@" + function + "]";
    return out;
}

std::size_t
DiagnosticEngine::errorCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags_)
        n += d.severity == DiagSeverity::Error ? 1 : 0;
    return n;
}

std::size_t
DiagnosticEngine::warningCount() const
{
    std::size_t n = 0;
    for (const Diagnostic &d : diags_)
        n += d.severity == DiagSeverity::Warning ? 1 : 0;
    return n;
}

void
DiagnosticEngine::sortByLocation()
{
    std::stable_sort(
        diags_.begin(), diags_.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            if (a.loc.line != b.loc.line)
                return a.loc.line < b.loc.line;
            if (a.loc.col != b.loc.col)
                return a.loc.col < b.loc.col;
            if (a.severity != b.severity)
                return a.severity > b.severity; // errors first
            return a.code < b.code;
        });
}

std::string
DiagnosticEngine::render(const std::string &file) const
{
    std::string out;
    for (const Diagnostic &d : diags_) {
        out += d.render(file);
        out += '\n';
    }
    return out;
}

void
DiagnosticEngine::renderJson(JsonWriter &json) const
{
    json.beginArray();
    for (const Diagnostic &d : diags_) {
        json.beginObject(JsonWriter::Inline);
        json.kv("severity", diagSeverityName(d.severity));
        json.kv("code", d.code);
        json.kv("line", d.loc.line);
        json.kv("col", d.loc.col);
        json.kv("function", d.function);
        json.kv("message", d.message);
        json.end();
    }
    json.end();
}

} // namespace upr

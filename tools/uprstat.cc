/**
 * @file
 * uprstat: pretty-print and diff observability metrics JSON.
 *
 *   uprstat FILE               human-readable counter/histogram table
 *   uprstat --json FILE        canonical JSON re-emission (round-trip)
 *   uprstat --diff OLD NEW     per-entry delta between two documents
 *
 * Accepted inputs: a MetricsSnapshot document ({"counters": ...,
 * "histograms": ...}) as written by MetricsSnapshot::toJson(), or a
 * bench_harness BENCH_*.json file, whose per-cell "metrics" sections
 * are aggregated under "<workload>/<version>." prefixed names.
 *
 * Exit status: 0 ok (diff: documents identical), 1 diff found
 * differences, 2 usage/parse error.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

using upr::JsonValue;

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: uprstat [--json] FILE\n"
                 "       uprstat --diff OLD NEW\n");
    return 2;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/**
 * A flattened document: counter name -> value, histogram name ->
 * (field name -> value). Maps give a stable order for printing and
 * diffing regardless of source order.
 */
struct FlatDoc
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::map<std::string, std::uint64_t>>
        histograms;
};

void
flattenHistogram(FlatDoc &doc, const std::string &name,
                 const JsonValue &h)
{
    if (!h.isObject())
        return;
    for (const auto &[field, value] : h.members()) {
        if (value.isUint())
            doc.histograms[name][field] = value.asUint();
    }
}

/** Flatten one MetricsSnapshot object into @p doc with @p prefix. */
void
flattenSnapshot(FlatDoc &doc, const std::string &prefix,
                const JsonValue &snap)
{
    if (const JsonValue *cs = snap.find("counters");
        cs && cs->isObject()) {
        for (const auto &[name, value] : cs->members()) {
            if (value.isUint())
                doc.counters[prefix + name] = value.asUint();
        }
    }
    if (const JsonValue *hs = snap.find("histograms");
        hs && hs->isObject()) {
        for (const auto &[name, h] : hs->members())
            flattenHistogram(doc, prefix + name, h);
    }
}

/** Flatten either document shape (see file comment). */
bool
flatten(const JsonValue &root, FlatDoc &doc)
{
    if (root.find("counters") || root.find("histograms")) {
        flattenSnapshot(doc, "", root);
        return true;
    }
    const JsonValue *cells = root.find("cells");
    if (!cells || !cells->isArray())
        return false;
    for (const JsonValue &cell : cells->items()) {
        const JsonValue *w = cell.find("workload");
        const JsonValue *v = cell.find("version");
        const JsonValue *m = cell.find("metrics");
        if (!w || !v || !m)
            continue;
        const std::string prefix =
            w->asString() + "/" + v->asString() + ".";
        for (const auto &[name, h] : m->members())
            flattenHistogram(doc, prefix + name, h);
    }
    return true;
}

void
printFlat(const FlatDoc &doc)
{
    if (!doc.counters.empty()) {
        std::printf("counters (%zu):\n", doc.counters.size());
        for (const auto &[name, value] : doc.counters)
            std::printf("  %-40s %20" PRIu64 "\n", name.c_str(),
                        value);
    }
    if (!doc.histograms.empty()) {
        std::printf("histograms (%zu):\n", doc.histograms.size());
        for (const auto &[name, fields] : doc.histograms) {
            std::printf("  %s:", name.c_str());
            for (const auto &[field, value] : fields)
                std::printf(" %s=%" PRIu64, field.c_str(), value);
            std::printf("\n");
        }
    }
    if (doc.counters.empty() && doc.histograms.empty())
        std::printf("(no metrics)\n");
}

/** Print one side-by-side diff row. */
void
diffRow(const std::string &name, const std::uint64_t *oldv,
        const std::uint64_t *newv)
{
    if (oldv && newv) {
        const std::int64_t delta =
            static_cast<std::int64_t>(*newv) -
            static_cast<std::int64_t>(*oldv);
        std::printf("  %-40s %20" PRIu64 " -> %20" PRIu64
                    "  (%+" PRId64 ")\n",
                    name.c_str(), *oldv, *newv, delta);
    } else if (newv) {
        std::printf("  %-40s %20s -> %20" PRIu64 "  (new)\n",
                    name.c_str(), "-", *newv);
    } else {
        std::printf("  %-40s %20" PRIu64 " -> %20s  (gone)\n",
                    name.c_str(), *oldv, "-");
    }
}

int
diffDocs(const FlatDoc &olds, const FlatDoc &news)
{
    bool differ = false;

    std::map<std::string, std::uint64_t> oldFlat = olds.counters;
    std::map<std::string, std::uint64_t> newFlat = news.counters;
    // Histogram fields join the same namespace as "name.field".
    for (const auto &[name, fields] : olds.histograms)
        for (const auto &[field, value] : fields)
            oldFlat[name + "." + field] = value;
    for (const auto &[name, fields] : news.histograms)
        for (const auto &[field, value] : fields)
            newFlat[name + "." + field] = value;

    std::vector<std::string> names;
    for (const auto &[name, value] : oldFlat)
        names.push_back(name);
    for (const auto &[name, value] : newFlat) {
        if (!oldFlat.count(name))
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    for (const std::string &name : names) {
        const auto oi = oldFlat.find(name);
        const auto ni = newFlat.find(name);
        const std::uint64_t *ov =
            oi == oldFlat.end() ? nullptr : &oi->second;
        const std::uint64_t *nv =
            ni == newFlat.end() ? nullptr : &ni->second;
        if (ov && nv && *ov == *nv)
            continue;
        differ = true;
        diffRow(name, ov, nv);
    }

    if (!differ) {
        std::printf("identical: %zu entries\n", oldFlat.size());
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool json = false;
    bool diff = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strcmp(argv[i], "--diff") == 0)
            diff = true;
        else if (argv[i][0] == '-' && argv[i][1] != '\0')
            return usage();
        else
            files.push_back(argv[i]);
    }
    if (diff ? files.size() != 2 : files.size() != 1)
        return usage();

    std::vector<JsonValue> docs;
    for (const std::string &path : files) {
        std::string text;
        if (!readFile(path, text)) {
            std::fprintf(stderr, "uprstat: cannot read %s\n",
                         path.c_str());
            return 2;
        }
        try {
            docs.push_back(upr::parseJson(text));
        } catch (const upr::JsonParseError &e) {
            std::fprintf(stderr, "uprstat: %s: %s\n", path.c_str(),
                         e.what());
            return 2;
        }
    }

    if (json) {
        // Canonical re-emission: parse(dump(parse(x))) == parse(x),
        // and dump is byte-stable on its own output.
        std::fputs(docs[0].dump().c_str(), stdout);
        return 0;
    }

    std::vector<FlatDoc> flat(docs.size());
    for (std::size_t i = 0; i < docs.size(); ++i) {
        if (!flatten(docs[i], flat[i])) {
            std::fprintf(stderr,
                         "uprstat: %s: neither a metrics snapshot "
                         "nor a bench file\n",
                         files[i].c_str());
            return 2;
        }
    }

    if (diff)
        return diffDocs(flat[0], flat[1]);
    printFlat(flat[0]);
    return 0;
}

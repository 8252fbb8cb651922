/**
 * @file
 * Implementation of the leo-lint checks (see checks.hh).
 */

#include "lint/checks.hh"

#include <algorithm>
#include <deque>
#include <tuple>

namespace leolint
{

namespace
{

bool
hasExtension(const std::string &rel, const char *ext)
{
    const std::size_t len = std::string(ext).size();
    return rel.size() >= len &&
           rel.compare(rel.size() - len, len, ext) == 0;
}

bool
isHeader(const std::string &rel)
{
    return hasExtension(rel, ".hh") || hasExtension(rel, ".h") ||
           hasExtension(rel, ".hpp");
}

bool
underAny(const std::string &rel,
         std::initializer_list<const char *> prefixes)
{
    for (const char *p : prefixes)
        if (rel.rfind(p, 0) == 0)
            return true;
    return false;
}

bool
nameStarts(const std::string &name, const char *prefix)
{
    return name.rfind(prefix, 0) == 0;
}

/** The deterministic core: per-file determinism check scope and the
 *  root set of the determinism-taint analysis. PR 10 widened it to
 *  platform, telemetry and workloads — everything the replayable
 *  trace pipeline touches. */
bool
inDeterminismScope(const std::string &rel)
{
    return underAny(rel, {"src/estimators/", "src/linalg/",
                          "src/parallel/", "src/optimizer/",
                          "src/scenario/", "src/service/",
                          "src/stats/", "src/platform/",
                          "src/telemetry/", "src/workloads/"});
}

void
report(std::vector<Diagnostic> &out, const SourceUnit &unit,
       const char *check, int line, std::string message)
{
    out.push_back({check, unit.rel, line, std::move(message), {}});
}

/** True when `name` is valid per the leo.<subsystem>.<name> scheme. */
bool
validObsName(const std::string &name)
{
    if (name.rfind("leo.", 0) != 0)
        return false;
    std::size_t components = 0;
    std::size_t b = 4;
    while (b <= name.size()) {
        const std::size_t dot = std::min(name.find('.', b), name.size());
        if (dot == b)
            return false; // Empty component.
        for (std::size_t i = b; i < dot; ++i) {
            const char c = name[i];
            const bool ok =
                (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                c == '_';
            if (!ok)
                return false;
        }
        ++components;
        b = dot + 1;
    }
    return components >= 2; // At least subsystem + name.
}

// ---- determinism (per-file) ------------------------------------- //

void
checkDeterminism(const SourceUnit &unit, const LintContext &,
                 std::vector<Diagnostic> &out)
{
    if (!inDeterminismScope(unit.rel))
        return;
    static const std::set<std::string> banned_idents = {
        "random_device", "system_clock", "high_resolution_clock",
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    static const std::set<std::string> banned_calls = {
        "rand", "srand", "rand_r", "drand48", "time", "clock"};
    const std::vector<Token> &t = unit.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier)
            continue;
        if (banned_idents.count(t[i].text)) {
            report(out, unit, "determinism", t[i].line,
                   "'" + t[i].text +
                       "' in the deterministic core: iteration order "
                       "/ values are nondeterministic (use std::map, "
                       "sorted vectors, steady_clock or seeded "
                       "stats::Rng instead)");
            continue;
        }
        // Bare libc calls: `rand(`, `time(` etc. Member calls like
        // `rng.rand(...)` would be a different function; only flag
        // the unqualified or std-qualified form.
        if (banned_calls.count(t[i].text) && i + 1 < t.size() &&
            t[i + 1].kind == TokenKind::Punct && t[i + 1].text == "(") {
            const bool member =
                i > 0 && t[i - 1].kind == TokenKind::Punct &&
                (t[i - 1].text == "." || t[i - 1].text == "->");
            if (!member) {
                report(out, unit, "determinism", t[i].line,
                       "call to '" + t[i].text +
                           "(' in the deterministic core: wall-clock "
                           "and libc randomness break bitwise "
                           "reproducibility (use stats::Rng with an "
                           "explicit seed)");
            }
        }
    }
}

// ---- hot-alloc (per-file, direct) ------------------------------- //

void
checkHotAlloc(const SourceUnit &unit, const LintContext &,
              std::vector<Diagnostic> &out)
{
    for (int l : unit.danglingHotMarkers)
        report(out, unit, "hot-alloc", l,
               "unmatched hot-begin/hot-end marker");
    if (unit.hotRegions.empty())
        return;
    static const std::set<std::string> containers = {
        "vector",        "deque",         "list",
        "map",           "set",           "multimap",
        "multiset",      "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset", "basic_string"};
    static const std::set<std::string> alloc_calls = {
        "malloc", "calloc", "realloc", "strdup", "make_unique",
        "make_shared"};
    const std::vector<Token> &t = unit.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier ||
            !unit.inHotRegion(t[i].line))
            continue;
        const std::string &w = t[i].text;
        const bool after_scope = i > 0 &&
                                 t[i - 1].kind == TokenKind::Punct &&
                                 t[i - 1].text == "::";
        const bool after_member =
            i > 0 && t[i - 1].kind == TokenKind::Punct &&
            (t[i - 1].text == "." || t[i - 1].text == "->");
        if (w == "new") {
            report(out, unit, "hot-alloc", t[i].line,
                   "'new' inside a hot region: the loop must stay "
                   "allocation-free (acquire the buffer from the "
                   "Workspace before the loop)");
        } else if ((w == "resize" || w == "reserve") && after_member) {
            report(out, unit, "hot-alloc", t[i].line,
                   "'." + w +
                       "(' inside a hot region may reallocate; "
                       "size the buffer before the loop");
        } else if ((w == "string" || w == "to_string") && after_scope) {
            report(out, unit, "hot-alloc", t[i].line,
                   "std::" + w +
                       " temporary inside a hot region allocates; "
                       "build strings outside the loop");
        } else if (containers.count(w) && after_scope) {
            report(out, unit, "hot-alloc", t[i].line,
                   "std::" + w +
                       " constructed inside a hot region allocates; "
                       "acquire it from the Workspace before the "
                       "loop");
        } else if (alloc_calls.count(w) && i + 1 < t.size() &&
                   t[i + 1].text == "(") {
            report(out, unit, "hot-alloc", t[i].line,
                   "'" + w + "(' inside a hot region allocates");
        }
    }
}

// ---- sanitize-boundary (per-file) ------------------------------- //

void
checkSanitizeBoundary(const SourceUnit &unit, const LintContext &,
                      std::vector<Diagnostic> &out)
{
    if (unit.rel.rfind("src/estimators/", 0) != 0 ||
        !hasExtension(unit.rel, ".cc"))
        return;
    static const std::set<std::string> entry_points = {"estimate",
                                                       "estimateMetric"};
    const std::vector<Token> &t = unit.tokens;
    for (std::size_t i = 1; i < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier ||
            !entry_points.count(t[i].text))
            continue;
        // Out-of-class definitions look like `Class::name(` — a
        // preceding `::` and a following `(`.
        if (t[i - 1].text != "::" || i + 1 >= t.size() ||
            t[i + 1].text != "(")
            continue;
        // Skip the parameter list.
        std::size_t j = i + 1;
        int parens = 0;
        for (; j < t.size(); ++j) {
            if (t[j].kind != TokenKind::Punct)
                continue;
            if (t[j].text == "(")
                ++parens;
            else if (t[j].text == ")" && --parens == 0)
                break;
        }
        // Scan qualifiers up to the body; a `;` means this was just
        // a qualified call or declaration.
        std::size_t body = j + 1;
        while (body < t.size() && t[body].text != "{" &&
               t[body].text != ";")
            ++body;
        if (body >= t.size() || t[body].text != "{")
            continue;
        // Walk the body looking for sanitizeObservations or a
        // delegating estimate*/fit call.
        int braces = 0;
        bool sanitized = false;
        std::size_t k = body;
        for (; k < t.size(); ++k) {
            if (t[k].kind == TokenKind::Punct) {
                if (t[k].text == "{")
                    ++braces;
                else if (t[k].text == "}" && --braces == 0)
                    break;
                continue;
            }
            if (t[k].kind != TokenKind::Identifier)
                continue;
            if (t[k].text == "sanitizeObservations" ||
                (k != i && entry_points.count(t[k].text) &&
                 k + 1 < t.size() && t[k + 1].text == "(")) {
                sanitized = true;
            }
        }
        if (!sanitized) {
            report(out, unit, "sanitize-boundary", t[i].line,
                   "estimator entry point '" + t[i].text +
                       "' neither calls sanitizeObservations() nor "
                       "delegates to an overload that does "
                       "(sanitize.hh: every estimator boundary "
                       "sanitizes its observations)");
        }
        i = k;
    }
}

// ---- obs-naming (per-file) -------------------------------------- //

void
checkObsNaming(const SourceUnit &unit, const LintContext &ctx,
               std::vector<Diagnostic> &out)
{
    if (!underAny(unit.rel, {"src/", "tools/", "bench/", "tests/"}))
        return;
    const bool is_names_header = unit.rel == "src/obs/names.hh";
    static const std::set<std::string> instruments = {
        "counter", "gauge", "histogram", "counterOr", "gaugeOr",
        "histogramOr", "Span"};
    const std::vector<Token> &t = unit.tokens;
    if (is_names_header) {
        // The central header itself: every literal must be a valid
        // leo.<subsystem>.<name>.
        for (const Token &tok : t) {
            if (tok.kind == TokenKind::String &&
                !validObsName(tok.text)) {
                report(out, unit, "obs-naming", tok.line,
                       "'" + tok.text +
                           "' does not match leo.<subsystem>.<name> "
                           "(lowercase [a-z0-9_] components joined "
                           "by dots)");
            }
        }
        return;
    }
    for (std::size_t i = 0; i + 2 < t.size(); ++i) {
        if (t[i].kind != TokenKind::Identifier ||
            !instruments.count(t[i].text))
            continue;
        // `counter("x")` and — for RAII spans — the declaration form
        // `Span span("x", ...)` with a variable name in between.
        std::size_t open = i + 1;
        if (t[i].text == "Span" &&
            t[open].kind == TokenKind::Identifier)
            ++open;
        if (open + 1 >= t.size() || t[open].text != "(" ||
            t[open + 1].kind != TokenKind::String)
            continue;
        const std::string &name = t[open + 1].text;
        if (!validObsName(name)) {
            report(out, unit, "obs-naming", t[open + 1].line,
                   "instrument name '" + name +
                       "' must match leo.<subsystem>.<name>; use the "
                       "constant from src/obs/names.hh");
        } else if (ctx.obsNamesLoaded && !ctx.obsNames.count(name)) {
            report(out, unit, "obs-naming", t[open + 1].line,
                   "instrument name '" + name +
                       "' is not declared in src/obs/names.hh; add "
                       "it there and reference the constant");
        }
    }
}

// ---- header-hygiene (per-file) ---------------------------------- //

void
checkHeaderHygiene(const SourceUnit &unit, const LintContext &,
                   std::vector<Diagnostic> &out)
{
    if (!isHeader(unit.rel))
        return;
    const std::vector<Token> &t = unit.tokens;
    if (t.empty())
        return;
    const bool pragma_once = t.size() >= 3 && t[0].text == "#" &&
                             t[1].text == "pragma" &&
                             t[2].text == "once";
    const bool ifndef_guard = t.size() >= 3 && t[0].text == "#" &&
                              t[1].text == "ifndef";
    if (!pragma_once && !ifndef_guard) {
        report(out, unit, "header-hygiene", t[0].line,
               "header must open with '#pragma once' or an #ifndef "
               "include guard (before any other code)");
    }
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
        if (t[i].kind == TokenKind::Identifier &&
            t[i].text == "using" &&
            t[i + 1].kind == TokenKind::Identifier &&
            t[i + 1].text == "namespace") {
            report(out, unit, "header-hygiene", t[i].line,
                   "'using namespace' in a header leaks into every "
                   "includer; qualify names instead");
        }
    }
}

// ---------------------------------------------------------------- //
// Program checks                                                   //
// ---------------------------------------------------------------- //

/** BFS bookkeeping over the function graph. */
struct Walk
{
    std::vector<char> visited;
    std::vector<std::size_t> parent;    //!< Caller id, or npos.
    std::vector<int> parentLine;        //!< Call-site line in caller.
    std::deque<std::size_t> queue;

    explicit Walk(std::size_t n)
        : visited(n, 0),
          parent(n, static_cast<std::size_t>(-1)),
          parentLine(n, 0)
    {
    }

    void seed(std::size_t id)
    {
        if (!visited[id]) {
            visited[id] = 1;
            queue.push_back(id);
        }
    }

    void follow(std::size_t from, const CallSite &call,
                const SymbolIndex &index)
    {
        for (std::size_t id :
             index.resolve(call.callee, call.classHint)) {
            if (visited[id])
                continue;
            visited[id] = 1;
            parent[id] = from;
            parentLine[id] = call.line;
            queue.push_back(id);
        }
    }

    /** "file:line symbol" frames from the BFS root down to `id`. */
    std::vector<std::string>
    chain(std::size_t id, const std::vector<SourceUnit> &units,
          const SymbolIndex &index) const
    {
        std::vector<std::string> frames;
        std::size_t cur = id;
        while (cur != static_cast<std::size_t>(-1)) {
            const FunctionDef &fn = index.functions[cur];
            const std::size_t par = parent[cur];
            const bool isRoot = par == static_cast<std::size_t>(-1);
            const std::string &file =
                isRoot ? units[fn.unit].rel
                       : units[index.functions[par].unit].rel;
            const int line = isRoot ? fn.line : parentLine[cur];
            frames.push_back(file + ":" + std::to_string(line) +
                             " " + fn.qualified());
            cur = par;
        }
        std::reverse(frames.begin(), frames.end());
        return frames;
    }
};

/** Root function the BFS entered `id` from (for messages). */
std::size_t
walkRoot(const Walk &walk, std::size_t id)
{
    while (walk.parent[id] != static_cast<std::size_t>(-1))
        id = walk.parent[id];
    return id;
}

// ---- nothrow-reachability --------------------------------------- //

void
checkNothrowReachability(const std::vector<SourceUnit> &units,
                         const SymbolIndex &index,
                         const CallGraph &graph,
                         std::vector<Diagnostic> &out,
                         std::size_t &suppressed)
{
    static const std::set<std::string> rootClasses = {
        "EnergyController", "Service"};
    Walk walk(index.functions.size());
    for (const StructDef &s : index.structs) {
        if (!rootClasses.count(s.name))
            continue;
        for (const MethodDecl &m : s.methods) {
            // Constructors/destructors run offline, before and after
            // the control loop; the nothrow contract covers the
            // steady-state entry points.
            if (!m.isPublic || m.name == s.name ||
                (!m.name.empty() && m.name[0] == '~'))
                continue;
            const auto it = index.functionsByName.find(m.name);
            if (it == index.functionsByName.end())
                continue;
            for (std::size_t id : it->second)
                if (index.functions[id].className == s.name)
                    walk.seed(id);
        }
    }
    while (!walk.queue.empty()) {
        const std::size_t f = walk.queue.front();
        walk.queue.pop_front();
        const FunctionDef &fn = index.functions[f];
        const SourceUnit &unit = units[fn.unit];
        for (const BodyEvent &ev : graph.facts[f].events) {
            if (ev.kind != BodyEvent::Kind::Throw || ev.guarded)
                continue;
            if (unit.lineAllows(ev.line, "nothrow-reachability")) {
                ++suppressed;
                continue;
            }
            const FunctionDef &root =
                index.functions[walkRoot(walk, f)];
            Diagnostic d;
            d.check = "nothrow-reachability";
            d.file = unit.rel;
            d.line = ev.line;
            d.message =
                "'throw' reachable from public entry point '" +
                root.qualified() +
                "': nothing on a controller/service path may throw "
                "(route failures through the fit() guard and the "
                "degradation policy)";
            d.chain = walk.chain(f, units, index);
            out.push_back(std::move(d));
        }
        for (const CallSite &call : graph.facts[f].calls)
            if (!call.guarded)
                walk.follow(f, call, index);
    }
}

// ---- determinism-taint ------------------------------------------ //

void
checkDeterminismTaint(const std::vector<SourceUnit> &units,
                      const SymbolIndex &index, const CallGraph &graph,
                      std::vector<Diagnostic> &out,
                      std::size_t &suppressed)
{
    Walk walk(index.functions.size());
    for (std::size_t f = 0; f < index.functions.size(); ++f)
        if (inDeterminismScope(units[index.functions[f].unit].rel))
            walk.seed(f);
    while (!walk.queue.empty()) {
        const std::size_t f = walk.queue.front();
        walk.queue.pop_front();
        const FunctionDef &fn = index.functions[f];
        const SourceUnit &unit = units[fn.unit];
        // Events inside the scope itself are the per-file
        // determinism check's findings; the taint pass reports the
        // sources that *leaked in* from outside the scope.
        if (!inDeterminismScope(unit.rel)) {
            for (const BodyEvent &ev : graph.facts[f].events) {
                if (ev.kind != BodyEvent::Kind::Determinism)
                    continue;
                if (unit.lineAllows(ev.line, "determinism-taint")) {
                    ++suppressed;
                    continue;
                }
                const FunctionDef &root =
                    index.functions[walkRoot(walk, f)];
                Diagnostic d;
                d.check = "determinism-taint";
                d.file = unit.rel;
                d.line = ev.line;
                d.message =
                    "'" + ev.what + "' in '" + fn.qualified() +
                    "' is reachable from the deterministic core ('" +
                    root.qualified() +
                    "'): the call chain imports nondeterminism the "
                    "per-file scope cannot see";
                d.chain = walk.chain(f, units, index);
                out.push_back(std::move(d));
            }
        }
        for (const CallSite &call : graph.facts[f].calls)
            walk.follow(f, call, index);
    }
}

// ---- hot-alloc-transitive --------------------------------------- //

void
checkHotAllocTransitive(const std::vector<SourceUnit> &units,
                        const SymbolIndex &index,
                        const CallGraph &graph,
                        std::vector<Diagnostic> &out,
                        std::size_t &suppressed)
{
    for (std::size_t f = 0; f < index.functions.size(); ++f) {
        const FunctionDef &fn = index.functions[f];
        const SourceUnit &unit = units[fn.unit];
        if (unit.hotRegions.empty())
            continue;
        for (const CallSite &call : graph.facts[f].calls) {
            if (!unit.inHotRegion(call.line))
                continue;
            if (unit.lineAllows(call.line, "hot-alloc-transitive")) {
                // Counted once per suppressed call site, even if
                // several allocations would be reachable.
                ++suppressed;
                continue;
            }
            // BFS from this call site only: the chain in the finding
            // starts at the hot call.
            Walk walk(index.functions.size());
            walk.visited[f] = 1; // Caller's own body is per-file.
            walk.follow(f, call, index);
            bool reported = false;
            while (!walk.queue.empty() && !reported) {
                const std::size_t g = walk.queue.front();
                walk.queue.pop_front();
                const FunctionDef &callee = index.functions[g];
                const SourceUnit &calleeUnit = units[callee.unit];
                for (const BodyEvent &ev : graph.facts[g].events) {
                    if (ev.kind != BodyEvent::Kind::Alloc)
                        continue;
                    if (calleeUnit.lineAllows(
                            ev.line, "hot-alloc-transitive"))
                        continue; // The allocation site opted out.
                    Diagnostic d;
                    d.check = "hot-alloc-transitive";
                    d.file = unit.rel;
                    d.line = call.line;
                    d.message =
                        "call to '" + call.callee +
                        "' inside a hot region reaches an "
                        "allocation ('" + ev.what + "' in '" +
                        callee.qualified() + "', " + calleeUnit.rel +
                        ":" + std::to_string(ev.line) +
                        "); hoist the allocation out of the hot "
                        "path";
                    d.chain = walk.chain(g, units, index);
                    d.chain.insert(
                        d.chain.begin(),
                        unit.rel + ":" + std::to_string(call.line) +
                            " " + fn.qualified());
                    out.push_back(std::move(d));
                    reported = true;
                    break;
                }
                if (reported)
                    break;
                for (const CallSite &next : graph.facts[g].calls)
                    walk.follow(g, next, index);
            }
        }
    }
}

// ---- snapshot-completeness -------------------------------------- //

/** One recognized serializer function. */
struct Serializer
{
    std::size_t fn;
    bool writer;
};

void
checkSnapshotCompleteness(const std::vector<SourceUnit> &units,
                          const SymbolIndex &index,
                          const CallGraph &graph,
                          std::vector<Diagnostic> &out,
                          std::size_t &suppressed)
{
    (void)graph;
    // Subject struct -> its serializers.
    std::map<std::string, std::vector<Serializer>> pairs;
    for (std::size_t f = 0; f < index.functions.size(); ++f) {
        const FunctionDef &fn = index.functions[f];
        const auto hasParam = [&](const char *type) {
            return std::find(fn.paramIdents.begin(),
                             fn.paramIdents.end(),
                             type) != fn.paramIdents.end();
        };
        const bool writer = (nameStarts(fn.name, "save") ||
                             nameStarts(fn.name, "write")) &&
                            hasParam("ByteWriter");
        const bool reader = (nameStarts(fn.name, "load") ||
                             nameStarts(fn.name, "restore") ||
                             nameStarts(fn.name, "read")) &&
                            hasParam("ByteReader");
        if (!writer && !reader)
            continue;
        // Subject: the method's class; for a free reader, the struct
        // it returns (loadFit(ByteReader&, const PriorBasis*) builds
        // a LeoFit, and only reads the basis); otherwise the first
        // parameter, then the return type, that names an indexed
        // struct (saveFit(ByteWriter&, const LeoFit&)).
        std::string subject = fn.className;
        if (subject.empty() && reader &&
            index.structsByName.count(fn.returnIdent))
            subject = fn.returnIdent;
        if (subject.empty()) {
            for (const std::string &p : fn.paramIdents) {
                if (p == "ByteWriter" || p == "ByteReader")
                    continue;
                if (index.structsByName.count(p)) {
                    subject = p;
                    break;
                }
            }
        }
        if (subject.empty() &&
            index.structsByName.count(fn.returnIdent))
            subject = fn.returnIdent;
        if (subject.empty() || !index.structsByName.count(subject))
            continue;
        pairs[subject].push_back({f, writer});
    }
    for (const auto &[subject, serializers] : pairs) {
        const StructDef &s =
            index.structs[index.structsByName.at(subject).front()];
        // Every identifier in a reader's body "mentions" a field. A
        // writer's mentions do not count: a writer that only reads a
        // field (a sizing hint, a cache key) serializes nothing, and
        // a field no reader restores is lost by a round trip however
        // the writer uses it.
        std::set<std::string> restored;
        std::vector<std::string> sites;
        for (const Serializer &ser : serializers) {
            const FunctionDef &fn = index.functions[ser.fn];
            const SourceUnit &unit = units[fn.unit];
            if (!ser.writer)
                for (std::size_t i = fn.bodyBegin;
                     i <= fn.bodyEnd && i < unit.tokens.size(); ++i)
                    if (unit.tokens[i].kind == TokenKind::Identifier)
                        restored.insert(unit.tokens[i].text);
            sites.push_back(unit.rel + ":" +
                            std::to_string(fn.line) + " " +
                            fn.qualified());
        }
        const SourceUnit &structUnit = units[s.unit];
        for (const FieldDef &field : s.fields) {
            if (restored.count(field.name))
                continue;
            if (structUnit.lineAllows(field.line,
                                      "snapshot-completeness")) {
                ++suppressed;
                continue;
            }
            Diagnostic d;
            d.check = "snapshot-completeness";
            d.file = structUnit.rel;
            d.line = field.line;
            d.message =
                "field '" + field.name + "' of '" + s.name +
                "' is not touched by any reader of its serializer "
                "pair: a snapshot round trip silently drops it "
                "(serialize and restore it, or suppress with a "
                "justification if it is derived/scratch state)";
            d.chain = sites;
            out.push_back(std::move(d));
        }
    }
}

} // namespace

// ---------------------------------------------------------------- //
// Registries and drivers                                           //
// ---------------------------------------------------------------- //

const std::vector<CheckInfo> &
fileChecks()
{
    static const std::vector<CheckInfo> registry = {
        {"determinism",
         "no clocks/randomness/unordered containers in the "
         "deterministic core"},
        {"hot-alloc",
         "no direct allocation between hot-begin/hot-end markers"},
        {"sanitize-boundary",
         "estimator entry points sanitize their observations"},
        {"obs-naming",
         "instrument names are leo.<subsystem>.<name> constants from "
         "src/obs/names.hh"},
        {"header-hygiene",
         "headers have include guards and no 'using namespace'"},
    };
    return registry;
}

const std::vector<CheckInfo> &
programChecks()
{
    static const std::vector<CheckInfo> registry = {
        {"nothrow-reachability",
         "no 'throw' reachable from public EnergyController/Service "
         "entry points"},
        {"determinism-taint",
         "no nondeterminism source reachable from the deterministic "
         "core"},
        {"hot-alloc-transitive",
         "hot regions reach no allocation through the call graph"},
        {"snapshot-completeness",
         "every field of a serialized struct is restored by a reader "
         "of its serializer pair"},
    };
    return registry;
}

void
sortDiagnostics(std::vector<Diagnostic> &diags)
{
    std::sort(diags.begin(), diags.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  return std::tie(a.file, a.line, a.check) <
                         std::tie(b.file, b.line, b.check);
              });
}

std::vector<Diagnostic>
lintUnit(const SourceUnit &unit, const LintContext &ctx,
         std::size_t *suppressed)
{
    std::vector<Diagnostic> raw;
    checkDeterminism(unit, ctx, raw);
    checkHotAlloc(unit, ctx, raw);
    checkSanitizeBoundary(unit, ctx, raw);
    checkObsNaming(unit, ctx, raw);
    checkHeaderHygiene(unit, ctx, raw);
    std::vector<Diagnostic> kept;
    std::size_t dropped = 0;
    for (Diagnostic &d : raw) {
        if (unit.lineAllows(d.line, d.check)) {
            ++dropped;
            continue;
        }
        kept.push_back(std::move(d));
    }
    sortDiagnostics(kept);
    if (suppressed)
        *suppressed += dropped;
    return kept;
}

std::vector<Diagnostic>
lintSource(const std::string &rel, const std::string &src,
           const LintContext &ctx, std::size_t *suppressed)
{
    return lintUnit(tokenize(rel, src), ctx, suppressed);
}

std::vector<Diagnostic>
lintProgram(const std::vector<SourceUnit> &units,
            const SymbolIndex &index, const CallGraph &graph,
            std::size_t *suppressed)
{
    std::vector<Diagnostic> out;
    std::size_t dropped = 0;
    checkNothrowReachability(units, index, graph, out, dropped);
    checkDeterminismTaint(units, index, graph, out, dropped);
    checkHotAllocTransitive(units, index, graph, out, dropped);
    checkSnapshotCompleteness(units, index, graph, out, dropped);
    sortDiagnostics(out);
    if (suppressed)
        *suppressed += dropped;
    return out;
}

LintContext
makeContext(const std::filesystem::path &root)
{
    LintContext ctx;
    const auto names = readFile(root / "src" / "obs" / "names.hh");
    if (!names)
        return ctx;
    const SourceUnit unit = tokenize("src/obs/names.hh", *names);
    for (const Token &tok : unit.tokens)
        if (tok.kind == TokenKind::String)
            ctx.obsNames.insert(tok.text);
    ctx.obsNamesLoaded = true;
    return ctx;
}

} // namespace leolint

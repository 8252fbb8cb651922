/**
 * @file
 * Tests for leo-lint v2 (tools/lint/): the tokenizer (including the
 * hardened corners), the symbol index, the call graph, the five
 * per-file checks, the four whole-program checks, and the
 * suppression syntax (per-line `allow` and whole-file `allow-file`).
 *
 * The test links the linter's library target (leo_lint_lib) and
 * drives lintSource() / lintProgram() directly over the known-good /
 * known-bad snippets in tests/lint_fixtures/ (compiled-in path
 * LEO_LINT_FIXTURES_DIR). Fixtures are linted under *virtual* paths —
 * the path scoping is part of what is being tested (e.g.
 * unordered_map is an error in src/estimators/ but fine in
 * src/runtime/).
 */

#include "lint/callgraph.hh"
#include "lint/checks.hh"
#include "lint/index.hh"
#include "lint/tokenizer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace
{

using leolint::Diagnostic;
using leolint::LintContext;
using leolint::lintSource;
using leolint::SourceUnit;

/** Read one fixture file (fails the test on a missing fixture). */
std::string
fixture(const std::string &name)
{
    const std::string path =
        std::string(LEO_LINT_FIXTURES_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture: " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Count diagnostics of one check. */
std::size_t
countCheck(const std::vector<Diagnostic> &ds, const std::string &check)
{
    std::size_t n = 0;
    for (const Diagnostic &d : ds)
        n += d.check == check;
    return n;
}

LintContext
testContext()
{
    LintContext ctx;
    ctx.obsNamesLoaded = true;
    ctx.obsNames = {"leo.em.fits.completed"};
    return ctx;
}

/** Tokenize (rel, source) pairs into a unit vector. */
std::vector<SourceUnit>
tokenizeAll(
    const std::vector<std::pair<std::string, std::string>> &files)
{
    std::vector<SourceUnit> units;
    for (const auto &[rel, src] : files)
        units.push_back(leolint::tokenize(rel, src));
    return units;
}

/** Index + call graph + program checks over virtual units. */
std::vector<Diagnostic>
lintProgramOver(
    const std::vector<std::pair<std::string, std::string>> &files,
    std::size_t *suppressed = nullptr)
{
    const auto units = tokenizeAll(files);
    const auto index = leolint::buildIndex(units);
    const auto graph = leolint::buildCallGraph(units, index);
    return leolint::lintProgram(units, index, graph, suppressed);
}

// ---- determinism ------------------------------------------------ //

TEST(LintDeterminism, FiresInsideTheDeterministicCore)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("bad_determinism.cc"),
                               testContext());
    // unordered_map, rand(, system_clock — at least three findings.
    EXPECT_GE(countCheck(ds, "determinism"), 3u);
}

TEST(LintDeterminism, CleanCodePasses)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("good_determinism.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
}

TEST(LintDeterminism, GlobalPlannerIsInScope)
{
    // The global co-scheduler must stay deterministic (the fleet
    // plan is asserted bitwise-reproducible across shard and worker
    // counts), so src/optimizer/ — including global.cc — is in the
    // determinism scope.
    const auto ds = lintSource("src/optimizer/global.cc",
                               fixture("bad_determinism.cc"),
                               testContext());
    EXPECT_GE(countCheck(ds, "determinism"), 3u);
}

TEST(LintDeterminism, ScenarioSubsystemIsInScope)
{
    // Scenario replay is asserted bit-reproducible (same spec, same
    // schedule at any shard/thread count), so src/scenario/ is in
    // the determinism scope.
    const auto ds = lintSource("src/scenario/scenario.cc",
                               fixture("bad_determinism.cc"),
                               testContext());
    EXPECT_GE(countCheck(ds, "determinism"), 3u);
}

TEST(LintDeterminism, PlatformTelemetryWorkloadsAreInScope)
{
    // PR 10 widened the determinism scope: sensor/actuator shims,
    // the observability layer and the workload generators all feed
    // replayed traces, so they are held to the same standard.
    for (const char *rel : {"src/platform/fixture.cc",
                            "src/telemetry/fixture.cc",
                            "src/workloads/fixture.cc"}) {
        const auto ds =
            lintSource(rel, fixture("bad_determinism.cc"),
                       testContext());
        EXPECT_GE(countCheck(ds, "determinism"), 3u) << rel;
    }
}

TEST(LintDeterminism, OutsideTheCoreIsNotScoped)
{
    // The same bad code under src/runtime/ is out of scope.
    const auto ds = lintSource("src/runtime/fixture.cc",
                               fixture("bad_determinism.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
}

TEST(LintDeterminism, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource("src/linalg/fixture.cc",
                               fixture("suppressed_determinism.cc"),
                               testContext(), &suppressed);
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
    EXPECT_GE(suppressed, 2u);
}

// ---- hot-alloc -------------------------------------------------- //

TEST(LintHotAlloc, FiresBetweenMarkers)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("bad_hot_alloc.cc"),
                               testContext());
    // vector ctor, .resize, new, std::string/std::to_string.
    EXPECT_GE(countCheck(ds, "hot-alloc"), 4u);
}

TEST(LintHotAlloc, PreallocatedLoopPasses)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("good_hot_alloc.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "hot-alloc"), 0u);
}

TEST(LintHotAlloc, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("suppressed_hot_alloc.cc"),
                               testContext(), &suppressed);
    EXPECT_EQ(countCheck(ds, "hot-alloc"), 0u);
    EXPECT_EQ(suppressed, 1u);
}

TEST(LintHotAlloc, OutsideMarkersIsFree)
{
    const auto ds = lintSource(
        "src/estimators/fixture.cc",
        "#include <vector>\n"
        "std::vector<int> make() { return std::vector<int>(4); }\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "hot-alloc"), 0u);
}

TEST(LintHotAlloc, DanglingMarkerIsReported)
{
    const auto ds = lintSource("src/x/fixture.cc",
                               "// leo-lint: hot-end\nint x;\n",
                               testContext());
    EXPECT_EQ(countCheck(ds, "hot-alloc"), 1u);
}

// ---- sanitize-boundary ------------------------------------------ //

TEST(LintSanitize, UnsanitizedEntryPointFires)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("bad_sanitize.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "sanitize-boundary"), 1u);
}

TEST(LintSanitize, SanitizingAndDelegatingOverloadsPass)
{
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("good_sanitize.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "sanitize-boundary"), 0u);
}

TEST(LintSanitize, OnlyEstimatorSourcesAreScoped)
{
    const auto ds = lintSource("src/optimizer/fixture.cc",
                               fixture("bad_sanitize.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "sanitize-boundary"), 0u);
}

TEST(LintSanitize, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource("src/estimators/fixture.cc",
                               fixture("suppressed_sanitize.cc"),
                               testContext(), &suppressed);
    EXPECT_EQ(countCheck(ds, "sanitize-boundary"), 0u);
    EXPECT_EQ(suppressed, 1u);
}

// ---- obs-naming ------------------------------------------------- //

TEST(LintObsNaming, RawAndUndeclaredLiteralsFire)
{
    const auto ds = lintSource("src/telemetry/fixture.cc",
                               fixture("bad_obs_name.cc"),
                               testContext());
    // One off-scheme literal + one undeclared-but-valid literal.
    EXPECT_EQ(countCheck(ds, "obs-naming"), 2u);
}

TEST(LintObsNaming, ConstantsAndDeclaredLiteralsPass)
{
    const auto ds = lintSource("src/telemetry/fixture.cc",
                               fixture("good_obs_name.cc"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "obs-naming"), 0u);
}

TEST(LintObsNaming, SpanDeclarationsAreChecked)
{
    const auto ds = lintSource(
        "src/runtime/fixture.cc",
        "struct Span { Span(const char *, const char *); };\n"
        "void f() { Span span(\"controller.window\", \"rt\"); }\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "obs-naming"), 1u);
}

TEST(LintObsNaming, TestsAreInScope)
{
    // PR 10 widened obs-naming to tests/: ad-hoc instrument names in
    // test code would otherwise leak into dashboards unreviewed.
    // Files that intentionally fabricate names (obs_test.cc) opt out
    // with allow-file.
    const auto ds = lintSource(
        "tests/fixture.cc",
        "struct R { int counter(const char *); };\n"
        "int f(R r) { return r.counter(\"test.ad.hoc\"); }\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "obs-naming"), 1u);
}

TEST(LintObsNaming, NamesHeaderLiteralsAreValidated)
{
    const auto ds = lintSource(
        "src/obs/names.hh",
        "#pragma once\n"
        "inline constexpr const char *kBad = \"Em.Fits\";\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "obs-naming"), 1u);
}

TEST(LintObsNaming, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource(
        "src/telemetry/fixture.cc",
        "struct R { int counter(const char *); };\n"
        "int f(R r) { return r.counter(\"x.y\"); } "
        "// leo-lint: allow(obs-naming)\n",
        testContext(), &suppressed);
    EXPECT_EQ(countCheck(ds, "obs-naming"), 0u);
    EXPECT_EQ(suppressed, 1u);
}

// ---- header-hygiene --------------------------------------------- //

TEST(LintHeaderHygiene, UnguardedUsingNamespaceHeaderFires)
{
    const auto ds = lintSource("src/workloads/fixture.hh",
                               fixture("bad_header.hh"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "header-hygiene"), 2u);
}

TEST(LintHeaderHygiene, GuardedHeaderPasses)
{
    const auto ds = lintSource("src/workloads/fixture.hh",
                               fixture("good_header.hh"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "header-hygiene"), 0u);
}

TEST(LintHeaderHygiene, IfndefGuardAccepted)
{
    const auto ds = lintSource("src/workloads/fixture.hh",
                               "#ifndef A_HH\n#define A_HH\n"
                               "int two();\n#endif\n",
                               testContext());
    EXPECT_EQ(countCheck(ds, "header-hygiene"), 0u);
}

TEST(LintHeaderHygiene, SourcesAreOutOfScope)
{
    const auto ds = lintSource("src/workloads/fixture.cc",
                               fixture("bad_header.hh"),
                               testContext());
    EXPECT_EQ(countCheck(ds, "header-hygiene"), 0u);
}

// ---- tokenizer / directives ------------------------------------- //

TEST(LintTokenizer, LiteralsAndCommentsAreInert)
{
    // Banned words inside strings and comments never fire.
    const auto ds = lintSource(
        "src/linalg/fixture.cc",
        "// mentions rand() and unordered_map in a comment\n"
        "/* system_clock too */\n"
        "const char *s = \"rand() unordered_map system_clock\";\n"
        "const char *r = R\"(time( rand( )\";\n", // leo-lint: allow(all)
        testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
}

TEST(LintTokenizer, MemberCallsAreNotLibcCalls)
{
    // The declaration of a member named rand() is flagged (line 1,
    // silenced here); the member *call* r.rand() must not be.
    const auto ds = lintSource(
        "src/stats/fixture.cc",
        "struct Rng { double rand(); }; // leo-lint: allow(determinism)\n"
        "double f(Rng &r) { return r.rand(); }\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
}

TEST(LintTokenizer, RawStringsSwallowCommentsAndDirectives)
{
    // `//`, banned identifiers and even lint directives inside
    // (possibly prefixed) raw string literals are literal text; code
    // *after* the raw string on the same line stays live.
    const auto bad = lintSource("src/estimators/fixture.cc",
                                fixture("bad_tok_raw.cc"),
                                testContext());
    EXPECT_GE(countCheck(bad, "determinism"), 1u);

    const auto good = lintSource("src/estimators/fixture.cc",
                                 fixture("good_tok_raw.cc"),
                                 testContext());
    EXPECT_EQ(countCheck(good, "determinism"), 0u);

    std::size_t suppressed = 0;
    const auto sup = lintSource("src/estimators/fixture.cc",
                                fixture("suppressed_tok_raw.cc"),
                                testContext(), &suppressed);
    EXPECT_EQ(countCheck(sup, "determinism"), 0u);
    EXPECT_GE(suppressed, 1u);
}

TEST(LintTokenizer, BackslashContinuedCommentsSpliceLines)
{
    // A line comment ending in '\' swallows the next line (phase-2
    // splicing): code "hidden" there is dead. Macro bodies continued
    // with '\' remain live code.
    const auto bad = lintSource("src/estimators/fixture.cc",
                                fixture("bad_tok_continuation.cc"),
                                testContext());
    EXPECT_GE(countCheck(bad, "determinism"), 1u);

    const auto good = lintSource("src/estimators/fixture.cc",
                                 fixture("good_tok_continuation.cc"),
                                 testContext());
    EXPECT_EQ(countCheck(good, "determinism"), 0u);

    std::size_t suppressed = 0;
    const auto sup = lintSource("src/estimators/fixture.cc",
                                fixture("suppressed_tok_continuation.cc"),
                                testContext(), &suppressed);
    EXPECT_EQ(countCheck(sup, "determinism"), 0u);
    EXPECT_GE(suppressed, 1u);
}

TEST(LintTokenizer, BlockCommentsDoNotNest)
{
    // `/* a /* b */` ends at the first `*/` (as in the compiler), so
    // code after it is live.
    const auto bad = lintSource("src/estimators/fixture.cc",
                                fixture("bad_tok_nested_comment.cc"),
                                testContext());
    EXPECT_GE(countCheck(bad, "determinism"), 1u);

    const auto good = lintSource("src/estimators/fixture.cc",
                                 fixture("good_tok_nested_comment.cc"),
                                 testContext());
    EXPECT_EQ(countCheck(good, "determinism"), 0u);

    std::size_t suppressed = 0;
    const auto sup =
        lintSource("src/estimators/fixture.cc",
                   fixture("suppressed_tok_nested_comment.cc"),
                   testContext(), &suppressed);
    EXPECT_EQ(countCheck(sup, "determinism"), 0u);
    EXPECT_GE(suppressed, 1u);
}

TEST(LintDirectives, AllowListSupportsMultipleChecks)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource(
        "src/estimators/fixture.cc",
        "std::unordered_map<int,int> m; "
        "// leo-lint: allow(determinism, hot-alloc)\n",
        testContext(), &suppressed);
    EXPECT_TRUE(ds.empty());
    EXPECT_EQ(suppressed, 1u);
}

TEST(LintDirectives, AllowOnOtherLineDoesNotSilence)
{
    const auto ds = lintSource(
        "src/estimators/fixture.cc",
        "// leo-lint: allow(determinism)\n"
        "std::unordered_map<int,int> m;\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 1u);
}

TEST(LintDirectives, AllowFileSilencesTheWholeFile)
{
    std::size_t suppressed = 0;
    const auto ds = lintSource(
        "src/estimators/fixture.cc",
        "// leo-lint: allow-file(determinism)\n"
        "std::unordered_map<int, int> a;\n"
        "std::unordered_map<int, int> b;\n",
        testContext(), &suppressed);
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
    EXPECT_EQ(suppressed, 2u);
}

TEST(LintDirectives, AllowFileIsPerCheck)
{
    // allow-file(determinism) does not silence other checks.
    const auto ds = lintSource(
        "src/estimators/fixture.cc",
        "// leo-lint: allow-file(determinism)\n"
        "// leo-lint: hot-end\n"
        "std::unordered_map<int, int> a;\n",
        testContext());
    EXPECT_EQ(countCheck(ds, "determinism"), 0u);
    EXPECT_EQ(countCheck(ds, "hot-alloc"), 1u);
}

// ---- symbol index ----------------------------------------------- //

TEST(LintIndex, RoundTripsFunctionsStructsAndFields)
{
    const auto units = tokenizeAll(
        {{"src/service/fixture.cc", fixture("bad_nothrow.cc")},
         {"src/runtime/blob.cc", fixture("bad_snapshot.cc")}});
    const auto index = leolint::buildIndex(units);

    // Service with a public method declaration `tick`.
    ASSERT_TRUE(index.structsByName.count("Service"));
    const auto &service =
        index.structs[index.structsByName.at("Service").front()];
    ASSERT_EQ(service.methods.size(), 1u);
    EXPECT_EQ(service.methods[0].name, "tick");
    EXPECT_TRUE(service.methods[0].isPublic);

    // The out-of-class definition Service::tick and the free helper.
    ASSERT_TRUE(index.functionsByName.count("tick"));
    const auto &tick =
        index.functions[index.functionsByName.at("tick").front()];
    EXPECT_EQ(tick.className, "Service");
    EXPECT_EQ(tick.qualified(), "Service::tick");
    EXPECT_EQ(tick.unit, 0u);
    ASSERT_TRUE(index.functionsByName.count("helperDeep"));

    // Blob's fields, with the units they came from.
    ASSERT_TRUE(index.structsByName.count("Blob"));
    const auto &blob =
        index.structs[index.structsByName.at("Blob").front()];
    EXPECT_EQ(blob.unit, 1u);
    ASSERT_EQ(blob.fields.size(), 2u);
    EXPECT_EQ(blob.fields[0].name, "kept");
    EXPECT_EQ(blob.fields[1].name, "dropped");

    // Serializer signatures carry their parameter identifiers.
    ASSERT_TRUE(index.functionsByName.count("saveBlob"));
    const auto &save =
        index.functions[index.functionsByName.at("saveBlob").front()];
    EXPECT_NE(std::find(save.paramIdents.begin(),
                        save.paramIdents.end(), "ByteWriter"),
              save.paramIdents.end());
    EXPECT_NE(std::find(save.paramIdents.begin(),
                        save.paramIdents.end(), "Blob"),
              save.paramIdents.end());

    // resolve(): class-qualified beats the name-wide fallback.
    const auto viaClass = index.resolve("tick", "Service");
    ASSERT_EQ(viaClass.size(), 1u);
    EXPECT_EQ(index.functions[viaClass.front()].qualified(),
              "Service::tick");
}

// ---- call graph ------------------------------------------------- //

TEST(LintCallGraph, RecordsCallsAndGuardedThrows)
{
    const auto units = tokenizeAll(
        {{"src/service/fixture.cc", fixture("good_nothrow.cc")}});
    const auto index = leolint::buildIndex(units);
    const auto graph = leolint::buildCallGraph(units, index);

    const std::size_t tick =
        index.functionsByName.at("tick").front();
    ASSERT_EQ(graph.facts[tick].calls.size(), 1u);
    EXPECT_EQ(graph.facts[tick].calls[0].callee, "helperDeep");
    EXPECT_FALSE(graph.facts[tick].calls[0].guarded);

    // helperDeep's throw sits inside try{} — guarded.
    const std::size_t helper =
        index.functionsByName.at("helperDeep").front();
    bool sawGuardedThrow = false;
    for (const auto &ev : graph.facts[helper].events)
        sawGuardedThrow |=
            ev.kind == leolint::BodyEvent::Kind::Throw && ev.guarded;
    EXPECT_TRUE(sawGuardedThrow);
}

TEST(LintCallGraph, CyclesTerminateAndStillReport)
{
    // Mutual recursion must not hang the BFS, and the throw inside
    // the cycle is still reported exactly once per entry point.
    const auto ds = lintProgramOver(
        {{"src/service/fixture.cc",
          "struct Service { public: void tick(); };\n"
          "void pong();\n"
          "void ping() { pong(); }\n"
          "void pong() { ping(); throw 1; }\n"
          "void Service::tick() { ping(); }\n"}});
    EXPECT_EQ(countCheck(ds, "nothrow-reachability"), 1u);
}

// ---- nothrow-reachability --------------------------------------- //

TEST(LintNoThrowReach, ThrowTwoCallsDeepFires)
{
    const auto ds = lintProgramOver(
        {{"src/service/fixture.cc", fixture("bad_nothrow.cc")}});
    ASSERT_EQ(countCheck(ds, "nothrow-reachability"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "nothrow-reachability")
            continue;
        EXPECT_NE(d.message.find("Service::tick"), std::string::npos)
            << d.message;
        // The chain walks root -> offender.
        EXPECT_GE(d.chain.size(), 2u);
    }
}

TEST(LintNoThrowReach, TryGuardedThrowPasses)
{
    const auto ds = lintProgramOver(
        {{"src/service/fixture.cc", fixture("good_nothrow.cc")}});
    EXPECT_EQ(countCheck(ds, "nothrow-reachability"), 0u);
}

TEST(LintNoThrowReach, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintProgramOver(
        {{"src/service/fixture.cc", fixture("suppressed_nothrow.cc")}},
        &suppressed);
    EXPECT_EQ(countCheck(ds, "nothrow-reachability"), 0u);
    EXPECT_GE(suppressed, 1u);
}

// ---- determinism-taint ------------------------------------------ //

TEST(LintTaint, ScopedRootReachingWallClockFires)
{
    // fitSomething() (scoped, src/estimators/) calls freshSeed()
    // (unscoped, src/runtime/) which reads the wall clock. The
    // per-file check cannot see this; the taint walk must.
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc", fixture("taint_root.cc")},
         {"src/runtime/fixture_util.cc", fixture("bad_taint_util.cc")}});
    ASSERT_EQ(countCheck(ds, "determinism-taint"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "determinism-taint")
            continue;
        EXPECT_EQ(d.file, "src/runtime/fixture_util.cc");
        EXPECT_NE(d.message.find("fitSomething"), std::string::npos)
            << d.message;
    }
}

TEST(LintTaint, DeterministicHelperPasses)
{
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc", fixture("taint_root.cc")},
         {"src/runtime/fixture_util.cc",
          fixture("good_taint_util.cc")}});
    EXPECT_EQ(countCheck(ds, "determinism-taint"), 0u);
}

TEST(LintTaint, UnreachedHelperIsNotReported)
{
    // Without the scoped root, the unscoped helper's wall-clock read
    // is nobody's business.
    const auto ds = lintProgramOver(
        {{"src/runtime/fixture_util.cc", fixture("bad_taint_util.cc")}});
    EXPECT_EQ(countCheck(ds, "determinism-taint"), 0u);
}

TEST(LintTaint, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc", fixture("taint_root.cc")},
         {"src/runtime/fixture_util.cc",
          fixture("suppressed_taint_util.cc")}},
        &suppressed);
    EXPECT_EQ(countCheck(ds, "determinism-taint"), 0u);
    EXPECT_GE(suppressed, 1u);
}

// ---- hot-alloc-transitive --------------------------------------- //

TEST(LintHotTransitive, AllocBehindACallFires)
{
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc",
          fixture("bad_hot_transitive.cc")}});
    ASSERT_EQ(countCheck(ds, "hot-alloc-transitive"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "hot-alloc-transitive")
            continue;
        EXPECT_NE(d.message.find("resize"), std::string::npos)
            << d.message;
        EXPECT_FALSE(d.chain.empty());
    }
}

TEST(LintHotTransitive, AllocFreeCalleePasses)
{
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc",
          fixture("good_hot_transitive.cc")}});
    EXPECT_EQ(countCheck(ds, "hot-alloc-transitive"), 0u);
}

TEST(LintHotTransitive, AllowDirectiveSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintProgramOver(
        {{"src/estimators/fixture.cc",
          fixture("suppressed_hot_transitive.cc")}},
        &suppressed);
    EXPECT_EQ(countCheck(ds, "hot-alloc-transitive"), 0u);
    EXPECT_GE(suppressed, 1u);
}

// ---- snapshot-completeness -------------------------------------- //

TEST(LintSnapshot, FieldMissingFromBothSerializersFires)
{
    // `dropped` was added to Blob without touching saveBlob/loadBlob:
    // exactly the drift this check exists to catch.
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc", fixture("bad_snapshot.cc")}});
    ASSERT_EQ(countCheck(ds, "snapshot-completeness"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "snapshot-completeness")
            continue;
        EXPECT_NE(d.message.find("dropped"), std::string::npos)
            << d.message;
        EXPECT_NE(d.message.find("Blob"), std::string::npos)
            << d.message;
    }
}

TEST(LintSnapshot, FullyRoundTrippedStructPasses)
{
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc", fixture("good_snapshot.cc")}});
    EXPECT_EQ(countCheck(ds, "snapshot-completeness"), 0u);
}

TEST(LintSnapshot, ReaderSubjectIsItsReturnType)
{
    // loadBlob(ByteReader&, const Context*) builds a Blob: the check
    // pairs it with saveBlob and flags Blob's 'dropped', not the
    // fields of the Context it only reads.
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc", fixture("bad_snapshot_reader.cc")}});
    ASSERT_EQ(countCheck(ds, "snapshot-completeness"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "snapshot-completeness")
            continue;
        EXPECT_NE(d.message.find("'dropped' of 'Blob'"),
                  std::string::npos)
            << d.message;
        EXPECT_EQ(d.chain.size(), 2u) << d.message;
    }
}

TEST(LintSnapshot, FieldOnlyTheWriterMentionsFires)
{
    // saveBlob reads 'last_size' as a sizing hint but loadBlob never
    // restores it: a writer's mention does not make a field
    // serialized.
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc",
          fixture("bad_snapshot_writer_only.cc")}});
    ASSERT_EQ(countCheck(ds, "snapshot-completeness"), 1u);
    for (const Diagnostic &d : ds) {
        if (d.check != "snapshot-completeness")
            continue;
        EXPECT_NE(d.message.find("'last_size' of 'Blob'"),
                  std::string::npos)
            << d.message;
    }
}

TEST(LintSnapshot, FieldTheReaderRestoresPasses)
{
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc",
          fixture("good_snapshot_writer_only.cc")}});
    EXPECT_EQ(countCheck(ds, "snapshot-completeness"), 0u);
}

TEST(LintSnapshot, AllowDirectiveOnTheFieldSilences)
{
    std::size_t suppressed = 0;
    const auto ds = lintProgramOver(
        {{"src/runtime/blob.cc", fixture("suppressed_snapshot.cc")}},
        &suppressed);
    EXPECT_EQ(countCheck(ds, "snapshot-completeness"), 0u);
    EXPECT_GE(suppressed, 1u);
}

// ---- registry --------------------------------------------------- //

TEST(LintRegistry, ExposesAllNineChecks)
{
    std::set<std::string> file, program;
    for (const leolint::CheckInfo &c : leolint::fileChecks())
        file.insert(c.name);
    for (const leolint::CheckInfo &c : leolint::programChecks())
        program.insert(c.name);
    const std::set<std::string> expectedFile = {
        "determinism", "hot-alloc", "sanitize-boundary", "obs-naming",
        "header-hygiene"};
    const std::set<std::string> expectedProgram = {
        "nothrow-reachability", "determinism-taint",
        "hot-alloc-transitive", "snapshot-completeness"};
    EXPECT_EQ(file, expectedFile);
    EXPECT_EQ(program, expectedProgram);
}

// ---- the real tree ---------------------------------------------- //

TEST(LintTree, RepoRootLintsClean)
{
    // The acceptance gate, as a unit test: the checked-in tree has
    // zero unsuppressed diagnostics from the file checks *and* the
    // program checks. LEO_LINT_REPO_ROOT is the source dir baked in
    // by tests/CMakeLists.txt.
    const std::filesystem::path root(LEO_LINT_REPO_ROOT);
    const LintContext ctx = leolint::makeContext(root);
    ASSERT_TRUE(ctx.obsNamesLoaded)
        << "src/obs/names.hh missing or unreadable";
    EXPECT_TRUE(ctx.obsNames.count("leo.em.fits.completed"));

    std::vector<SourceUnit> units;
    for (const char *sub : {"src", "tools", "bench", "tests"}) {
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(root /
                                                           sub)) {
            if (!entry.is_regular_file())
                continue;
            const std::string ext = entry.path().extension().string();
            if (ext != ".cc" && ext != ".hh" && ext != ".h")
                continue;
            const std::string rel =
                std::filesystem::relative(entry.path(), root)
                    .generic_string();
            if (rel.find("lint_fixtures/") != std::string::npos)
                continue;
            const auto src = leolint::readFile(entry.path());
            ASSERT_TRUE(src.has_value()) << entry.path();
            units.push_back(leolint::tokenize(rel, *src));
        }
    }

    std::vector<Diagnostic> all;
    for (const SourceUnit &unit : units)
        for (Diagnostic &d : leolint::lintUnit(unit, ctx))
            all.push_back(std::move(d));
    const auto index = leolint::buildIndex(units);
    const auto graph = leolint::buildCallGraph(units, index);
    for (Diagnostic &d : leolint::lintProgram(units, index, graph))
        all.push_back(std::move(d));

    std::vector<std::string> offenders;
    for (const Diagnostic &d : all)
        offenders.push_back(d.file + ":" + std::to_string(d.line) +
                            " [" + d.check + "] " + d.message);
    EXPECT_TRUE(offenders.empty())
        << "tree is not lint-clean:\n"
        << [&] {
               std::string joined;
               for (const std::string &o : offenders)
                   joined += o + "\n";
               return joined;
           }();
}

} // namespace

/**
 * @file
 * Tests for leo::scenario: trace parsing and replay, the scenario
 * DSL, the change-point detector, and the scenario runners.
 *
 * The contracts under test, from DESIGN.md "Scenarios and
 * change-point adaptation":
 *
 *  - TraceTable parsing rejects malformed input loudly (missing
 *    columns, non-integer indices, non-finite cells, empty segments)
 *    and tolerates comments, headers and CRLF endings;
 *  - TraceApplicationModel fills missing configs by index-linear
 *    interpolation and replays measured rows bit-exactly;
 *  - Spec round-trips through its canonical text form (counts
 *    exactly), parses JSON through the same field setters as text,
 *    rejects hostile values in both forms, and expands grids as a
 *    pure cross product;
 *  - every cut, bit-flipped or line-swapped copy of the shipped
 *    traces and of two specs throws leo::Error or parses — a spec to
 *    canonical text that re-renders as itself;
 *  - the ChangePointDetector stays quiet on stationary residual
 *    streams, fires within a few windows of a genuine step, and
 *    centers out persistent fit bias learned during warmup;
 *  - runScenario, the repository's one closed frame loop, accounts
 *    every frame from the scenario's own behavior (rate, power,
 *    busy-plus-idle energy, per-phase sums), and reproduces the
 *    Section 6.6 properties on the two-phase fluidanimate spec;
 *  - the service-driven runner's schedules (support::runScenarioService)
 *    are a pure function of the spec —
 *    independent of shard count, worker count and mid-run snapshot
 *    round-trips.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "estimators/leo.hh"
#include "estimators/sanitize.hh"
#include "linalg/error.hh"
#include "parallel/thread_pool.hh"
#include "runtime/changepoint.hh"
#include "scenario/scenario.hh"
#include "scenario/spec.hh"
#include "support/scenario_runner.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"
#include "workloads/trace.hh"

using namespace leo;
using linalg::Vector;
using platform::ConfigSpace;
using platform::Machine;
using runtime::ChangePointDetector;
using runtime::ChangePointOptions;
using workloads::TraceApplicationModel;
using workloads::TraceTable;

namespace
{

struct World
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{7};
    telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
};

/** Write text to a fresh file under the gtest temp dir. */
std::string
writeTempFile(const std::string &name, const std::string &text)
{
    const std::string path = ::testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary);
    out << text;
    return path;
}

/** A two-segment trace over @p space: rows at the ends and middle. */
std::string
twoSegmentCsv(const ConfigSpace &space)
{
    const std::size_t last = space.size() - 1;
    char buf[256];
    std::string text = "# two-segment test trace\r\n"
                       "config,performance,power\r\n"
                       "segment,40\r\n";
    std::snprintf(buf, sizeof(buf), "0,10.0,100.0\r\n%zu,30.0,140.0\r\n",
                  last);
    text += buf;
    text += "segment,0\r\n";
    std::snprintf(buf, sizeof(buf), "0,5.0,90.0\r\n%zu,15.0,120.0\r\n",
                  last);
    text += buf;
    return text;
}

} // namespace

// ------------------------------------------------------- Trace parsing

TEST(TraceParse, CsvTolerantOfHeaderCommentsCrlf)
{
    World w;
    const TraceTable t = TraceTable::fromString(twoSegmentCsv(w.space));
    ASSERT_EQ(t.segments.size(), 2u);
    EXPECT_EQ(t.segments[0].workUnits, 40u);
    EXPECT_EQ(t.segments[1].workUnits, 0u);
    ASSERT_EQ(t.segments[0].indices.size(), 2u);
    EXPECT_EQ(t.segments[0].indices[0], 0u);
    EXPECT_EQ(t.segments[0].performance[1], 30.0);
    EXPECT_EQ(t.segments[1].power[0], 90.0);
    EXPECT_EQ(t.maxIndex(), w.space.size() - 1);
}

TEST(TraceParse, MissingColumnThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,1.0\n"), FatalError);
}

TEST(TraceParse, NonFiniteCellThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,nan,100.0\n"), FatalError);
    EXPECT_THROW(TraceTable::fromString("0,1.0,inf\n"), FatalError);
}

TEST(TraceParse, NonPositiveCellThrows)
{
    EXPECT_THROW(TraceTable::fromString("0,0.0,100.0\n"), FatalError);
    EXPECT_THROW(TraceTable::fromString("0,1.0,-5.0\n"), FatalError);
}

TEST(TraceParse, CountsAreExactIntegers)
{
    // Config indices and work-unit counts go through the shared count
    // parser: no exponent, fraction or sign slips through a cast.
    for (const char *bad :
         {"1e30,5,100\n", "-1,5,100\n", "2.5,5,100\n",
          "segment,1e3\n0,1.0,100\n", "segment,-4\n0,1.0,100\n",
          "0,1.0,100,\n", "[[1e30, 5, 100]]", "[[0.5, 5, 100]]",
          "{\"segments\": [{\"workUnits\": 2.5,"
          " \"rows\": [[0, 1.0, 90.0]]}]}",
          "[[0, 1e400, 100]]"})
        EXPECT_THROW(TraceTable::fromString(bad), FatalError) << bad;
    // Inline comments are stripped from data rows too.
    const TraceTable t =
        TraceTable::fromString("segment,5 # warmup\n3,2.0,90 # ok\n");
    EXPECT_EQ(t.segments[0].workUnits, 5u);
    EXPECT_EQ(t.segments[0].indices[0], 3u);
}

TEST(TraceParse, EmptySegmentThrows)
{
    EXPECT_THROW(
        TraceTable::fromString("segment,10\nsegment,0\n0,1.0,100\n"),
        FatalError);
    EXPECT_THROW(TraceTable::fromString("segment,10\n"), FatalError);
}

TEST(TraceParse, DuplicateConfigInSegmentThrows)
{
    EXPECT_THROW(
        TraceTable::fromString("0,1.0,100\n0,2.0,110\n"), FatalError);
}

TEST(TraceParse, JsonBareArray)
{
    const TraceTable t =
        TraceTable::fromString("[[0, 2.5, 100.0], [3, 5.0, 130.0]]");
    ASSERT_EQ(t.segments.size(), 1u);
    EXPECT_EQ(t.segments[0].workUnits, 0u);
    ASSERT_EQ(t.segments[0].indices.size(), 2u);
    EXPECT_EQ(t.segments[0].indices[1], 3u);
    EXPECT_EQ(t.segments[0].performance[0], 2.5);
}

TEST(TraceParse, JsonSegmentsObject)
{
    const TraceTable t = TraceTable::fromString(
        "{\"segments\": ["
        "{\"workUnits\": 20, \"rows\": [[0, 1.0, 90.0]]},"
        "{\"workUnits\": 0, \"rows\": [[0, 2.0, 95.0]]}]}");
    ASSERT_EQ(t.segments.size(), 2u);
    EXPECT_EQ(t.segments[0].workUnits, 20u);
    EXPECT_EQ(t.segments[1].performance[0], 2.0);
}

TEST(TraceParse, FromFileRoundTripAndUnreadablePath)
{
    World w;
    const std::string path =
        writeTempFile("scenario_trace.csv", twoSegmentCsv(w.space));
    const TraceTable t = TraceTable::fromFile(path);
    EXPECT_EQ(t.segments.size(), 2u);
    EXPECT_THROW(TraceTable::fromFile(::testing::TempDir() +
                                      "does_not_exist.csv"),
                 FatalError);
}

TEST(TraceParse, ShippedExampleTracesStayValid)
{
    // The example traces under examples/traces/ are documentation;
    // parsing them here keeps the docs honest as the format evolves.
    const std::string dir = LEO_EXAMPLE_TRACES_DIR;
    const TraceTable csv =
        TraceTable::fromFile(dir + "/web_requests.csv");
    ASSERT_EQ(csv.segments.size(), 2u);
    EXPECT_EQ(csv.segments[0].workUnits, 500u);
    EXPECT_EQ(csv.segments[1].workUnits, 0u);
    EXPECT_EQ(csv.maxIndex(), 15u);

    const TraceTable json =
        TraceTable::fromFile(dir + "/batch_phases.json");
    ASSERT_EQ(json.segments.size(), 2u);
    EXPECT_EQ(json.segments[0].workUnits, 300u);
    EXPECT_EQ(json.maxIndex(), 15u);

    // Both replay against any space with at least 16 configurations.
    World w;
    ASSERT_GE(w.space.size(), 16u);
    const TraceApplicationModel m(csv, w.space);
    EXPECT_EQ(m.numSegments(), 2u);
}

// -------------------------------------------------------- Trace replay

TEST(TraceModel, OutOfRangeIndexThrowsAtConstruction)
{
    World w;
    TraceTable t;
    t.segments.push_back(
        {0, {w.space.size() + 7}, {1.0}, {100.0}});
    EXPECT_THROW(TraceApplicationModel(t, w.space), FatalError);
}

TEST(TraceModel, InterpolationPolicies)
{
    World w;
    const std::size_t last = w.space.size() - 1;
    ASSERT_GE(last, 2u);
    TraceTable t;
    t.segments.push_back({0, {0, last}, {10.0, 30.0}, {100.0, 140.0}});

    // The one fill policy: index-linear between measured rows, which
    // replay bit-exactly.
    const TraceApplicationModel ml(t, w.space);
    const Vector &pl = ml.segmentPerformance(0);
    EXPECT_EQ(pl[0], 10.0);
    EXPECT_EQ(pl[last], 30.0);
    EXPECT_EQ(ml.segmentPower(0)[0], 100.0);
    EXPECT_EQ(ml.segmentPower(0)[last], 140.0);
    for (std::size_t c = 1; c < last; ++c) {
        const double expect =
            10.0 + (30.0 - 10.0) * static_cast<double>(c) /
                       static_cast<double>(last);
        EXPECT_NEAR(pl[c], expect, 1e-12) << "config " << c;
    }

    // Before the first and past the last measured row the fill
    // clamps to that row.
    TraceTable inner;
    inner.segments.push_back({0, {1, last - 1}, {10.0, 30.0},
                              {100.0, 140.0}});
    const TraceApplicationModel mi(inner, w.space);
    EXPECT_EQ(mi.segmentPerformance(0)[0], 10.0);
    EXPECT_EQ(mi.segmentPerformance(0)[last], 30.0);
}

TEST(TraceModel, SegmentSwitchingFollowsWorkUnits)
{
    World w;
    TraceApplicationModel m(
        TraceTable::fromString(twoSegmentCsv(w.space)), w.space);
    ASSERT_EQ(m.numSegments(), 2u);
    const auto &ra0 = w.space.assignment(0);

    // Segment 0 replays rate 10 at config 0, segment 1 rate 5.
    m.setWorkUnit(0);
    EXPECT_EQ(m.heartbeatRate(ra0), 10.0);

    m.setWorkUnit(39);
    EXPECT_EQ(m.heartbeatRate(ra0), 10.0);
    m.setWorkUnit(40);
    EXPECT_EQ(m.heartbeatRate(ra0), 5.0);

    // The unbounded terminal segment runs forever.
    m.setWorkUnit(100000);
    EXPECT_EQ(m.heartbeatRate(ra0), 5.0);
    EXPECT_EQ(m.segmentAt(0), 0u);
    EXPECT_EQ(m.segmentAt(39), 0u);
    EXPECT_EQ(m.segmentAt(40), 1u);
    EXPECT_EQ(m.segmentAt(100000), 1u);
}

// --------------------------------------------------------- Scenario DSL

TEST(SpecDsl, CanonicalTextRoundTrips)
{
    scenario::Spec spec;
    spec.name = "round_trip";
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"swaptions", 1.0, 60}, {"kmeans", 0.75, 40}};
    spec.targetRate = 3.5;
    spec.frames = 100;
    spec.seed = 99;
    spec.changePointPolicy = runtime::ChangePointPolicy::ColdRefit;
    spec.faults.nanProb = 0.05;
    spec.faults.outlierProb = 0.02;
    spec.faults.outlierScale = 25.0;
    spec.faults.seed = 7;
    spec.arrivals = {4, 8, 0.2};

    const std::string text = support::specToString(spec);
    const scenario::Spec back = scenario::Spec::fromString(text);
    EXPECT_EQ(support::specToString(back), text);
    EXPECT_EQ(back.name, "round_trip");
    ASSERT_EQ(back.phases.size(), 2u);
    EXPECT_EQ(back.phases[1].app, "kmeans");
    EXPECT_EQ(back.phases[1].scale, 0.75);
    EXPECT_EQ(back.changePointPolicy,
              runtime::ChangePointPolicy::ColdRefit);
    EXPECT_EQ(back.faults.outlierScale, 25.0);
    EXPECT_EQ(back.arrivals.tenants, 4u);
    EXPECT_EQ(back.arrivals.rateSpread, 0.2);
}

TEST(SpecDsl, TolerantOfCommentsAndCrlf)
{
    const scenario::Spec spec = scenario::Spec::fromString(
        "# a comment\r\n"
        "name crlf_spec\r\n"
        "\r\n"
        "workload analytic   # trailing comment\r\n"
        "app kmeans\r\n"
        "frames 32\r\n");
    EXPECT_EQ(spec.name, "crlf_spec");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Analytic);
    EXPECT_EQ(spec.app, "kmeans");
    EXPECT_EQ(spec.frames, 32u);
}

TEST(SpecDsl, JsonParses)
{
    const scenario::Spec spec = scenario::Spec::fromString(
        "{\"name\": \"j\", \"workload\": \"phased\", \"target\": 2.0,"
        " \"seed\": 5, \"changepoint\": \"coldrefit\","
        " \"phases\": [{\"app\": \"x264\", \"frames\": 30,"
        "               \"scale\": 0.5}],"
        " \"fault\": {\"dropout\": 0.1},"
        " \"tenants\": {\"count\": 3, \"spacing\": 2,"
        "               \"rate_spread\": 0.1}}");
    EXPECT_EQ(spec.name, "j");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Phased);
    EXPECT_EQ(spec.targetRate, 2.0);
    EXPECT_EQ(spec.changePointPolicy,
              runtime::ChangePointPolicy::ColdRefit);
    ASSERT_EQ(spec.phases.size(), 1u);
    EXPECT_EQ(spec.phases[0].scale, 0.5);
    EXPECT_EQ(spec.faults.dropoutProb, 0.1);
    EXPECT_EQ(spec.arrivals.tenants, 3u);
}

TEST(SpecDsl, RejectsUnknownKeysAndBadValues)
{
    EXPECT_THROW(scenario::Spec::fromString("bogus_key 1\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("frames not_a_number\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("workload quantum\n"),
                 FatalError);
    EXPECT_THROW(scenario::Spec::fromString("changepoint maybe\n"),
                 FatalError);
}

TEST(SpecDsl, HostileValuesThrowInBothForms)
{
    // JSON scalars go through the text grammar's setters, so both
    // forms reject the same values.
    const char *cases[] = {
        "{\"frames\": -1}",
        "{\"frames\": 2.5}",
        "{\"frames\": 1e30}",
        "{\"seed\": -3}",
        "{\"tenants\": {\"count\": -1}}",
        "{\"tenants\": {\"spacing\": 0.5}}",
        "{\"tenants\": {\"crowd\": 3}}",
        "{\"target\": -5}",
        "{\"target\": 1e400}",
        "{\"phases\": [{\"app\": \"x264\", \"frames\": 0}]}",
        "{\"phases\": [{\"app\": \"x264\", \"frames\": -2}]}",
        "{\"phases\": [{\"app\": \"x264\"}]}",
        "{\"phases\": [{\"frames\": 5, \"scale\": -1}]}",
        "{\"phases\": [{\"frames\": 5, \"speed\": 2}]}",
        "{\"fault\": {\"seed\": -1}}",
        "{\"phase_scale\": 2}",
        "{\"frames\": true}",
        "frames 1e30\n",
        "frames -1\n",
        "frames 2.5\n",
        "seed -3\n",
        "tenants -1\n",
        "target -5\n",
        "target nan\n",
        "target inf\n",
        "phase x264 frames=0\n",
        "phase x264 frames=10 scale=-1\n",
        "phase x264 frames=10 scale=0\n",
        "phase x264 frames=10 scale=nan\n",
        "phase_scale -1\n",
        "fault seed=1.5\n",
    };
    for (const char *text : cases)
        EXPECT_THROW(scenario::Spec::fromString(text), FatalError)
            << text;
}

/**
 * The canonical text carries every spec the parser accepts: a value
 * the text grammar cannot hold back (a second token, a blank, '#', a
 * control character, an empty value, a phase scale rescaled out of
 * range) is rejected in both forms, and a trace body keeps its lines
 * whatever they say.
 */
TEST(SpecDsl, TextFormCarriesEveryAcceptedSpec)
{
    const char *rejected[] = {
        "seed 42 43\n",
        "trace_file /data/my traces/a.csv\n",
        "name two words\n",
        "app x264 extra\n",
        "changepoint off coldrefit\n",
        "fault.nan 0.1 0.2\n",
        "trace_inline <<END extra\n0,1.0,100\nEND\n",
        "name a\x01z\n",
        "phase x\x7f" "264 frames=5\n",
        "phase x264 frames=5 scale=1e300\nphase_scale 1e300\n",
        "phase x264 frames=5 scale=1e-300\nphase_scale 1e-300\n",
        "{\"name\": \"two words\"}",
        "{\"app\": \"x264 extra\"}",
        "{\"name\": \"a#b\"}",
        "{\"name\": \"\"}",
        "{\"name\": \"tab\\there\"}",
        "{\"name\": \"line\\nbreak\"}",
        "{\"trace_file\": \"/data/my traces/a.csv\"}",
        "{\"phases\": [{\"app\": \"x 264\", \"frames\": 5}]}",
    };
    for (const char *text : rejected)
        EXPECT_THROW(scenario::Spec::fromString(text), FatalError)
            << text;

    // Bodies whose lines read as the default delimiter, or as its
    // first fallbacks, close at their own end; CRLF bodies are stored
    // as LF in both forms.
    struct Body
    {
        const char *json;
        std::string traceText;
    };
    const Body bodies[] = {
        {"{\"trace_inline\": \"0,1.0,100\\nEND\\n1,2.0,110\\n\"}",
         "0,1.0,100\nEND\n1,2.0,110\n"},
        {"{\"trace_inline\": \"END\\nEND1\\n  END2 # x\\n\"}",
         "END\nEND1\n  END2 # x\n"},
        {"{\"trace_inline\": \"0,1.0,100\\r\\n1,2.0,110\\r\\r\"}",
         "0,1.0,100\n1,2.0,110"},
    };
    for (const Body &b : bodies) {
        SCOPED_TRACE(b.json);
        const scenario::Spec spec = scenario::Spec::fromString(b.json);
        EXPECT_EQ(spec.traceText, b.traceText);
        const std::string text = support::specToString(spec);
        const scenario::Spec back = scenario::Spec::fromString(text);
        EXPECT_EQ(support::specToString(back), text);
        const std::string body = b.traceText.back() == '\n'
                                     ? b.traceText
                                     : b.traceText + "\n";
        EXPECT_EQ(back.traceText, body);
    }
    const scenario::Spec crlf = scenario::Spec::fromString(
        "trace_inline <<EOF\r\n0,1.0,100\r\n1,2.0,110\r\r\nEOF\r\n");
    EXPECT_EQ(crlf.traceText, "0,1.0,100\n1,2.0,110\n");

    // Every fault field off its default survives, a value only the
    // fault injector rejects included.
    const scenario::Spec faulty =
        scenario::Spec::fromString(support::specToString(
            scenario::Spec::fromString("fault nan=-0.5 outlier_scale=20\n")));
    EXPECT_EQ(faulty.faults.nanProb, -0.5);
    EXPECT_EQ(faulty.faults.outlierScale, 20.0);
}

TEST(SpecDsl, CountsRoundTripExactly)
{
    // 2^53 + 1 is the first count a double cannot hold.
    scenario::Spec spec;
    spec.seed = 9007199254740993ull;
    spec.frames = 9007199254740993ull;
    spec.faults.seed = 18446744073709551615ull;
    const scenario::Spec back =
        scenario::Spec::fromString(support::specToString(spec));
    EXPECT_EQ(back.seed, 9007199254740993ull);
    EXPECT_EQ(back.frames, 9007199254740993ull);
    EXPECT_EQ(back.faults.seed, 18446744073709551615ull);
    EXPECT_EQ(support::specToString(back), support::specToString(spec));

    const scenario::Spec json = scenario::Spec::fromString(
        "{\"seed\": 9007199254740993, \"target\": 0.1}");
    EXPECT_EQ(json.seed, 9007199254740993ull);
    EXPECT_EQ(json.targetRate, 0.1);
}

TEST(SpecDsl, InlineTraceHeredoc)
{
    World w;
    const scenario::Spec spec = scenario::Spec::fromString(
        "name heredoc\n"
        "workload trace\n"
        "frames 20\n"
        "trace_inline <<END\n"
        "0,2.0,100.0\n"
        "END\n");
    EXPECT_EQ(spec.workload, scenario::WorkloadKind::Trace);
    EXPECT_NE(spec.traceText.find("0,2.0,100.0"), std::string::npos);
    scenario::Scenario sc(spec, w.machine, w.space);
    EXPECT_EQ(sc.totalFrames(), 20u);
    EXPECT_EQ(sc.numPhases(), 1u);
    // Auto target: half the peak rate (flat 2.0 everywhere).
    EXPECT_EQ(sc.controllerOptions().targetRate, 1.0);
}

TEST(SpecDsl, ExpandGridIsCrossProduct)
{
    scenario::Spec base;
    base.name = "grid";
    const auto cells = scenario::expandGrid(
        base, {{"changepoint", {"off", "coldrefit"}},
               {"seed", {"1", "2", "3"}}});
    ASSERT_EQ(cells.size(), 6u);
    EXPECT_EQ(cells[0].name, "grid/changepoint=off/seed=1");
    EXPECT_EQ(cells[0].seed, 1u);
    EXPECT_EQ(cells[5].name, "grid/changepoint=coldrefit/seed=3");
    EXPECT_EQ(cells[5].changePointPolicy,
              runtime::ChangePointPolicy::ColdRefit);
    EXPECT_EQ(cells[5].seed, 3u);
    // Cells inherit everything not swept.
    EXPECT_EQ(cells[3].workload, base.workload);
}

TEST(SpecDsl, SetFieldRoutesFaultAndPhaseScale)
{
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"x264", 1.0, 10}, {"x264", 2.0, 10}};
    scenario::setField(spec, "fault.nan", "0.25");
    scenario::setField(spec, "phase_scale", "0.5");
    EXPECT_EQ(spec.faults.nanProb, 0.25);
    EXPECT_EQ(spec.phases[0].scale, 0.5);
    EXPECT_EQ(spec.phases[1].scale, 1.0);
    EXPECT_THROW(scenario::setField(spec, "fault.gamma_rays", "1"),
                 FatalError);
}

// ------------------------------------------------- Hostile input bytes

namespace
{

/** A text spec that uses every directive of the text grammar. */
const char *const kEveryDirectiveText =
    "# every directive of the text grammar\n"
    "name mutant\n"
    "workload phased\n"
    "app kmeans\n"
    "target 2.5\n"
    "frames 120\n"
    "seed 77\n"
    "changepoint coldrefit\n"
    "fault nan=0.05 inf=0.01 dropout=0.02 outlier=0.03 "
    "outlier_scale=20 stale=0.04 seed=9\n"
    "fault.nan 0.06\n"
    "phase x264 frames=60 scale=1.0\n"
    "phase swaptions frames=40 scale=0.75\n"
    "phase_scale 0.5\n"
    "tenants 3 spacing=4 rate_spread=0.1\n"
    "trace_file examples/traces/web_requests.csv\n"
    "trace_inline <<END\n"
    "segment,40\n"
    "0,1.0,100\n"
    "END\n";

/** A JSON spec that uses every key of the JSON form. */
const char *const kEveryKeyJson =
    "{\n"
    "  \"name\": \"mutant\",\n"
    "  \"workload\": \"trace\",\n"
    "  \"app\": \"lud\",\n"
    "  \"target\": 1.5,\n"
    "  \"frames\": 90,\n"
    "  \"seed\": 12,\n"
    "  \"changepoint\": \"off\",\n"
    "  \"fault\": {\"nan\": 0.05, \"inf\": 0.01, \"dropout\": 0.02,\n"
    "            \"outlier\": 0.03, \"outlier_scale\": 20,\n"
    "            \"stale\": 0.04, \"seed\": 9},\n"
    "  \"fault.stale\": 0.05,\n"
    "  \"phases\": [{\"app\": \"x264\", \"frames\": 30, \"scale\": 0.5},\n"
    "             {\"app\": \"lud\", \"frames\": 20, \"scale\": 2}],\n"
    "  \"tenants\": {\"count\": 2, \"spacing\": 3, \"rate_spread\": 0.2},\n"
    "  \"trace_file\": \"a.csv\",\n"
    "  \"trace_inline\": \"segment,40\\n0,1.0,100\\nEND\\n1,2.0,120\\n\"\n"
    "}\n";

/** A spec mutant throws leo::Error, or its canonical text parses
 *  back to the same canonical text. */
::testing::AssertionResult
specMutantHolds(const std::string &text, std::size_t *accepted)
{
    std::string canonical;
    try {
        canonical =
            support::specToString(scenario::Spec::fromString(text));
    } catch (const Error &) {
        return ::testing::AssertionSuccess();
    }
    ++*accepted;
    try {
        const std::string again =
            support::specToString(scenario::Spec::fromString(canonical));
        if (again != canonical)
            return ::testing::AssertionFailure()
                   << "canonical text\n"
                   << canonical << "re-renders as\n"
                   << again;
    } catch (const Error &e) {
        return ::testing::AssertionFailure()
               << "canonical text\n"
               << canonical << "fails to parse: " << e.what();
    }
    return ::testing::AssertionSuccess();
}

/** A trace mutant throws leo::Error, or parses to a table that keeps
 *  the documented invariants. */
::testing::AssertionResult
traceMutantHolds(const std::string &text, std::size_t *accepted)
{
    TraceTable t;
    try {
        t = TraceTable::fromString(text);
    } catch (const Error &) {
        return ::testing::AssertionSuccess();
    }
    ++*accepted;
    if (t.segments.empty())
        return ::testing::AssertionFailure() << "no segments";
    for (const auto &seg : t.segments) {
        const std::size_t rows = seg.indices.size();
        if (rows == 0 || seg.performance.size() != rows ||
            seg.power.size() != rows)
            return ::testing::AssertionFailure() << "ragged segment";
        for (std::size_t i = 0; i < rows; ++i) {
            if (i > 0 && seg.indices[i] <= seg.indices[i - 1])
                return ::testing::AssertionFailure()
                       << "indices not strictly increasing";
            if (!std::isfinite(seg.performance[i]) ||
                seg.performance[i] <= 0.0 ||
                !std::isfinite(seg.power[i]) || seg.power[i] <= 0.0)
                return ::testing::AssertionFailure()
                       << "unusable cell in row " << i;
        }
    }
    return ::testing::AssertionSuccess();
}

/** @return The lines of @p text (split on '\n', which they keep). */
std::vector<std::string>
linesOf(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at < text.size()) {
        const std::size_t end = text.find('\n', at);
        const std::size_t next =
            end == std::string::npos ? text.size() : end + 1;
        lines.push_back(text.substr(at, next - at));
        at = next;
    }
    return lines;
}

/**
 * Feed every mutant of @p text to @p holds: the text cut at every
 * offset, 2000 seeded trials of 1-4 bit flips, and 2000 seeded swaps
 * of two distinct lines. Prints the accepted share per mutation.
 */
template <typename Holds>
void
mutateAll(const std::string &label, const std::string &text,
          Holds holds, std::uint64_t seed)
{
    std::size_t accepted = 0;
    for (std::size_t cut = 0; cut <= text.size(); ++cut)
        ASSERT_TRUE(holds(text.substr(0, cut), &accepted))
            << label << " cut at " << cut;
    const std::size_t cuts = accepted;

    constexpr std::size_t kTrials = 2000;
    stats::Rng pick(seed);
    const auto bits = static_cast<std::int64_t>(8 * text.size());
    accepted = 0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        std::string mutated = text;
        const std::int64_t flips = pick.uniformInt(1, 4);
        for (std::int64_t k = 0; k < flips; ++k) {
            const std::int64_t bit = pick.uniformInt(0, bits - 1);
            mutated[static_cast<std::size_t>(bit / 8)] ^=
                static_cast<char>(1 << (bit % 8));
        }
        ASSERT_TRUE(holds(mutated, &accepted))
            << label << " bit-flip trial " << trial;
    }
    const std::size_t flipped = accepted;

    const std::vector<std::string> lines = linesOf(text);
    ASSERT_GE(lines.size(), 2u) << label;
    const auto last = static_cast<std::int64_t>(lines.size()) - 1;
    accepted = 0;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        std::vector<std::string> swapped = lines;
        const std::int64_t i = pick.uniformInt(0, last);
        std::int64_t j = pick.uniformInt(0, last - 1);
        if (j >= i)
            ++j;
        std::swap(swapped[static_cast<std::size_t>(i)],
                  swapped[static_cast<std::size_t>(j)]);
        std::string mutated;
        for (const std::string &line : swapped)
            mutated += line;
        ASSERT_TRUE(holds(mutated, &accepted))
            << label << " line-swap trial " << trial;
    }
    std::printf("%s mutants accepted: %zu of %zu cuts, %zu of %zu bit "
                "flips, %zu of %zu line swaps\n",
                label.c_str(), cuts, text.size() + 1, flipped, kTrials,
                accepted, kTrials);
}

/** @return The whole file at @p path. */
std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in), {});
}

} // namespace

/**
 * Hostile trace bytes: every mutant of the two shipped traces throws
 * leo::Error or parses to a table whose rows are sorted, unique and
 * finite and positive.
 */
TEST(HostileInput, TraceMutantsFailLoudlyOrParseValid)
{
    const std::string dir = LEO_EXAMPLE_TRACES_DIR;
    mutateAll("web_requests.csv", readFile(dir + "/web_requests.csv"),
              traceMutantHolds, 101);
    mutateAll("batch_phases.json", readFile(dir + "/batch_phases.json"),
              traceMutantHolds, 102);
}

/**
 * Hostile spec bytes: every mutant of a text spec and a JSON spec
 * that together use every directive throws leo::Error or parses to a
 * spec whose canonical text parses back to the same canonical text.
 */
TEST(HostileInput, SpecMutantsFailLoudlyOrRoundTrip)
{
    std::size_t unused = 0;
    ASSERT_TRUE(specMutantHolds(kEveryDirectiveText, &unused));
    ASSERT_TRUE(specMutantHolds(kEveryKeyJson, &unused));
    ASSERT_EQ(unused, 2u) << "the unmutated specs must parse";
    mutateAll("text spec", kEveryDirectiveText, specMutantHolds, 103);
    mutateAll("JSON spec", kEveryKeyJson, specMutantHolds, 104);
}

// ------------------------------------------------ Scenario materialize

TEST(Scenario, MaterializationErrors)
{
    World w;
    scenario::Spec no_phases;
    no_phases.workload = scenario::WorkloadKind::Phased;
    EXPECT_THROW(scenario::Scenario(no_phases, w.machine, w.space),
                 FatalError);

    scenario::Spec no_trace;
    no_trace.workload = scenario::WorkloadKind::Trace;
    EXPECT_THROW(scenario::Scenario(no_trace, w.machine, w.space),
                 FatalError);

    scenario::Spec zero_frames;
    zero_frames.frames = 0;
    EXPECT_THROW(scenario::Scenario(zero_frames, w.machine, w.space),
                 FatalError);

    // Specs built in code skip the parser: the phase-scale guard holds
    // at materialization too.
    scenario::Spec phased;
    phased.workload = scenario::WorkloadKind::Phased;
    for (const double bad :
         {0.0, -1.0, std::nan(""), std::numeric_limits<double>::infinity()}) {
        phased.phases = {{"kmeans", bad, 10}};
        EXPECT_THROW(scenario::Scenario(phased, w.machine, w.space),
                     FatalError)
            << bad;
    }
}

TEST(Phased, RejectsEmpty)
{
    // A phased scenario needs at least one phase, and every phase at
    // least one frame, whether or not the spec went through the parser.
    World w;
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    EXPECT_THROW(scenario::Scenario(spec, w.machine, w.space), FatalError);
    spec.phases = {{"kmeans", 1.0, 0}};
    EXPECT_THROW(scenario::Scenario(spec, w.machine, w.space), FatalError);
    spec.phases = {{"kmeans", 1.0, 10}, {"kmeans", 1.0, 0}};
    EXPECT_THROW(scenario::Scenario(spec, w.machine, w.space), FatalError);
}

TEST(Scenario, PhaseIndexAtBoundaries)
{
    World w;
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"fluidanimate", 1.0, 50},
                   {"fluidanimate", 1.5, 50}};
    scenario::Scenario sc(spec, w.machine, w.space);
    EXPECT_EQ(sc.numPhases(), 2u);
    EXPECT_EQ(sc.totalFrames(), 100u);
    EXPECT_EQ(sc.phaseIndexAt(0), 0u);
    EXPECT_EQ(sc.phaseIndexAt(49), 0u);
    EXPECT_EQ(sc.phaseIndexAt(50), 1u);
    EXPECT_EQ(sc.phaseIndexAt(99), 1u);
    // Past the end holds the last phase (the service-driven runner
    // may run more windows than the spec has frames).
    EXPECT_EQ(sc.phaseIndexAt(100), 1u);
    // Phase 2 needs 2/3 the resources: 3/2 the heartbeat rate.
    for (std::size_t c = 0; c < w.space.size(); ++c)
        EXPECT_NEAR(sc.truth(1).performance[c],
                    1.5 * sc.truth(0).performance[c],
                    1e-12 * sc.truth(1).performance[c]);
}

TEST(Scenario, AutoTargetIsHalfFirstPhasePeak)
{
    World w;
    scenario::Spec spec;
    spec.app = "swaptions";
    spec.frames = 10;
    scenario::Scenario sc(spec, w.machine, w.space);
    workloads::ApplicationModel m(
        workloads::profileByName("swaptions"), w.machine);
    const auto gt = workloads::computeGroundTruth(m, w.space);
    EXPECT_EQ(sc.controllerOptions().targetRate, 0.5 * gt.performance.max());
}

// ------------------------------------------------------ The frame loop

namespace
{

/**
 * The Section 6.6 workload: @p frames of fluidanimate, then @p frames
 * needing 2/3 the resources per frame, paced at @p fraction of the
 * heavy phase's peak rate.
 */
scenario::Spec
twoPhaseSpec(const World &w, std::size_t frames, double fraction,
             std::uint64_t seed)
{
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"fluidanimate", 1.0, frames},
                   {"fluidanimate", 1.5, frames}};
    spec.seed = seed;
    const scenario::Scenario heavy(spec, w.machine, w.space);
    spec.targetRate = fraction * heavy.truth(0).performance.max();
    return spec;
}

} // namespace

TEST(ScenarioRun, FrameAccountingMatchesBehavior)
{
    // Recompute every FrameRecord from the scenario itself: the true
    // rate and power of the chosen configuration, the frame's energy
    // (busy power plus idle slack), and the sums over the trace.
    World w;
    scenario::Scenario sc(twoPhaseSpec(w, 30, 0.6, 91), w.machine,
                          w.space);
    estimators::LeoEstimator leo;
    const auto prior = w.store.without("fluidanimate");
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, prior, base);

    const double target = sc.controllerOptions().targetRate;
    const double period = 1.0 / target;
    const double idle = w.machine.spec().idleSystemPowerW;
    ASSERT_EQ(r.trace.size(), sc.totalFrames());
    std::vector<double> phase_energy(sc.numPhases(), 0.0);
    double total = 0.0;
    std::size_t hits = 0, slack_frames = 0, late_frames = 0;
    for (std::size_t f = 0; f < r.trace.size(); ++f) {
        const scenario::FrameRecord &rec = r.trace[f];
        EXPECT_EQ(rec.frame, f);
        EXPECT_EQ(rec.phase, sc.phaseIndexAt(f));
        const auto &ra = w.space.assignment(rec.configIndex);
        const workloads::ApplicationBehavior &b = sc.behaviorAt(f);
        EXPECT_EQ(rec.rate, b.heartbeatRate(ra));
        EXPECT_EQ(rec.powerWatts, b.powerWatts(ra));
        EXPECT_EQ(rec.normalizedPerformance, rec.rate / target);
        const double busy = 1.0 / rec.rate;
        double energy = rec.powerWatts * busy;
        if (busy < period) {
            energy += idle * (period - busy);
            ++slack_frames;
        } else {
            ++late_frames;
        }
        EXPECT_EQ(rec.energyJoules, energy) << "frame " << f;
        phase_energy[rec.phase] += rec.energyJoules;
        total += rec.energyJoules;
        if (busy <= period * (1.0 + 1e-9))
            ++hits;
    }
    // Both accounting branches ran.
    EXPECT_GT(slack_frames, 0u);
    EXPECT_GT(late_frames, 0u);
    EXPECT_EQ(r.phaseEnergy, phase_energy);
    EXPECT_EQ(r.totalEnergy, total);
    EXPECT_EQ(r.deadlineHitRate, static_cast<double>(hits) /
                                     static_cast<double>(r.trace.size()));
    EXPECT_EQ(r.changePoints, 0u);
    EXPECT_EQ(r.faultsInjected, 0u);
}

TEST(ScenarioRun, OffPolicyIgnoresDetectorSettings)
{
    // Policy Off is the pre-detector controller: the detector is
    // never configured or consulted, so no detector setting can move
    // a single frame.
    World w;
    scenario::Spec spec = twoPhaseSpec(w, 30, 0.6, 5);
    estimators::LeoEstimator leo;
    const auto prior = w.store.without("fluidanimate");
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    scenario::Scenario plain_sc(spec, w.machine, w.space);
    const auto plain = scenario::runScenario(plain_sc, &leo, prior, base);

    base.changePoint.cusumDrift = 0.0;
    base.changePoint.cusumThreshold = 0.1;
    base.changePoint.warmupWindows = 1;
    scenario::Scenario tuned_sc(spec, w.machine, w.space);
    const auto tuned = scenario::runScenario(tuned_sc, &leo, prior, base);

    ASSERT_EQ(tuned.trace.size(), plain.trace.size());
    for (std::size_t f = 0; f < plain.trace.size(); ++f) {
        EXPECT_EQ(tuned.trace[f].configIndex, plain.trace[f].configIndex);
        EXPECT_EQ(tuned.trace[f].energyJoules,
                  plain.trace[f].energyJoules);
    }
    EXPECT_EQ(tuned.totalEnergy, plain.totalEnergy);
    EXPECT_EQ(tuned.reestimations, plain.reestimations);
    EXPECT_GE(plain.reestimations, 1u);
    EXPECT_EQ(tuned.changePoints, 0u);
}

TEST(ScenarioRun, OracleMeetsDemandInBothPhases)
{
    World w;
    // Demand achievable in both phases: ~60% of phase-1 peak.
    scenario::Scenario sc(twoPhaseSpec(w, 30, 0.6, 7), w.machine,
                          w.space);
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, nullptr, w.store, base);
    EXPECT_EQ(r.trace.size(), 60u);
    EXPECT_EQ(r.phaseEnergy.size(), 2u);
    EXPECT_GT(r.deadlineHitRate, 0.9);
    // Phase 2 needs 2/3 the resources: oracle spends less energy.
    EXPECT_LT(r.phaseEnergy[1], r.phaseEnergy[0]);
}

TEST(ScenarioRun, LeoAdaptsToPhaseChange)
{
    World w;
    scenario::Scenario sc(twoPhaseSpec(w, 40, 0.6, 7), w.machine,
                          w.space);
    estimators::LeoEstimator leo;
    const auto prior = w.store.without("fluidanimate");
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, prior, base);
    // The phase change must have been noticed.
    EXPECT_GE(r.reestimations, 1u);
    // And the controller still hits most frames.
    EXPECT_GT(r.deadlineHitRate, 0.6);
}

TEST(ScenarioRun, LeoNearOracleEnergy)
{
    // The Table 1 property, loosened: LEO's total energy lands
    // within 35% of the oracle on the phased workload.
    World w;
    scenario::Scenario sc(twoPhaseSpec(w, 40, 0.55, 11), w.machine,
                          w.space);
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto oracle =
        scenario::runScenario(sc, nullptr, w.store, base);
    estimators::LeoEstimator leo;
    const auto prior = w.store.without("fluidanimate");
    const auto mine = scenario::runScenario(sc, &leo, prior, base);
    EXPECT_GT(oracle.totalEnergy, 0.0);
    EXPECT_LT(mine.totalEnergy, oracle.totalEnergy * 1.35);
}

TEST(ScenarioRun, FaultyRunStaysFiniteAndCountsInjections)
{
    World w;
    scenario::Spec spec;
    spec.app = "x264";
    spec.frames = 80;
    spec.faults.nanProb = 0.1;
    spec.faults.outlierProb = 0.1;
    spec.faults.outlierScale = 50.0;
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_TRUE(std::isfinite(r.totalEnergy));
    EXPECT_GT(r.totalEnergy, 0.0);
    for (const auto &fr : r.trace)
        EXPECT_TRUE(std::isfinite(fr.energyJoules));
}

TEST(ScenarioRun, ChangePointPolicyReactsToPhaseStep)
{
    // A 40% rate step is far above the detector's standardization
    // scale: the ColdRefit run must notice it at least once.
    World w;
    scenario::Spec spec;
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"swaptions", 1.0, 50}, {"swaptions", 0.6, 50}};
    spec.changePointPolicy = runtime::ChangePointPolicy::ColdRefit;
    spec.seed = 17;
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_GE(r.changePoints, 1u);
    EXPECT_GE(r.reestimations, r.changePoints);
}

TEST(ScenarioRun, TraceWorkloadThroughEstimatorAndController)
{
    World w;
    scenario::Spec spec;
    spec.name = "trace_loop";
    spec.workload = scenario::WorkloadKind::Trace;
    spec.frames = 60;
    spec.traceText = twoSegmentCsv(w.space);
    scenario::Scenario sc(spec, w.machine, w.space);
    estimators::LeoEstimator leo;
    runtime::ControllerOptions base;
    base.sampleBudget = 6;
    const auto r = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_EQ(r.trace.size(), 60u);
    EXPECT_EQ(r.phaseEnergy.size(), 2u);
    EXPECT_TRUE(std::isfinite(r.totalEnergy));
    EXPECT_GT(r.phaseEnergy[0], 0.0);
    EXPECT_GT(r.phaseEnergy[1], 0.0);
    // Re-running the same scenario replays bit-for-bit.
    const auto again = scenario::runScenario(sc, &leo, w.store, base);
    EXPECT_EQ(again.totalEnergy, r.totalEnergy);
    ASSERT_EQ(again.trace.size(), r.trace.size());
    for (std::size_t f = 0; f < r.trace.size(); ++f)
        EXPECT_EQ(again.trace[f].configIndex,
                  r.trace[f].configIndex);
}

// --------------------------------------------- Change-point detector

TEST(ChangePoint, QuietOnStationaryResiduals)
{
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    // Standardized residuals in steady state sit well inside one
    // predictive sigma (the floor/cap bracket the noise).
    stats::Rng rng(404);
    for (std::size_t i = 0; i < 500; ++i)
        EXPECT_FALSE(det.observe(0.5 * rng.gaussian()))
            << "false alarm at window " << i;
    EXPECT_EQ(det.windowsObserved(), 500u);
}

TEST(ChangePoint, DetectsStepWithinAFewWindows)
{
    ChangePointOptions opt;
    opt.warmupWindows = 10; // Pin the bias estimate down first.
    ChangePointDetector det;
    det.configure(opt);
    stats::Rng rng(405);
    for (std::size_t i = 0; i < 50; ++i)
        ASSERT_FALSE(det.observe(0.5 * rng.gaussian()));
    // A 4-sigma step must fire within 5 windows.
    bool fired = false;
    std::size_t windows = 0;
    for (; windows < 5 && !fired; ++windows)
        fired = det.observe(4.0 + 0.5 * rng.gaussian());
    EXPECT_TRUE(fired);
    EXPECT_LE(windows, 5u);
    EXPECT_GE(det.lastDetectionLatency(), 1u);
}

TEST(ChangePoint, WarmupCentersOutPersistentFitBias)
{
    // A constant 2.5-sigma residual is static fit bias, not a phase
    // change: warmup learns it and the CUSUM never accumulates.
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    for (std::size_t i = 0; i < 200; ++i)
        EXPECT_FALSE(det.observe(2.5)) << "window " << i;
    // A later step on top of the bias is still detected.
    bool fired = false;
    std::size_t windows = 0;
    for (; windows < 5 && !fired; ++windows)
        fired = det.observe(6.5);
    EXPECT_TRUE(fired);
}

TEST(ChangePoint, NonFiniteResidualsAreIgnored)
{
    ChangePointOptions opt;
    ChangePointDetector det;
    det.configure(opt);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_FALSE(
            det.observe(std::numeric_limits<double>::quiet_NaN()));
        EXPECT_FALSE(
            det.observe(std::numeric_limits<double>::infinity()));
    }
    // Faulted telemetry is not evidence — and not windows either.
    EXPECT_EQ(det.windowsObserved(), 0u);
}

TEST(ChangePoint, SerializationRoundTripsMidStream)
{
    ChangePointOptions opt;
    ChangePointDetector a;
    a.configure(opt);
    stats::Rng rng(407);
    std::vector<double> head, tail;
    for (std::size_t i = 0; i < 30; ++i)
        head.push_back(0.5 * rng.gaussian());
    for (std::size_t i = 0; i < 30; ++i)
        tail.push_back(2.0 + 0.5 * rng.gaussian());

    for (const double r : head)
        a.observe(r);
    linalg::ByteWriter bw;
    a.save(bw);
    ChangePointDetector b;
    b.configure(opt);
    linalg::ByteReader br(bw.bytes());
    ASSERT_TRUE(b.restore(br));
    EXPECT_TRUE(br.atEnd());
    EXPECT_EQ(b.windowsObserved(), a.windowsObserved());
    // The restored detector fires in lockstep with the original.
    for (const double r : tail)
        EXPECT_EQ(a.observe(r), b.observe(r));

    // A short blob fails and leaves the detector empty.
    const std::string cut = bw.bytes().substr(0, bw.size() - 1);
    linalg::ByteReader short_r(cut);
    EXPECT_FALSE(b.restore(short_r));
    EXPECT_EQ(b.windowsObserved(), 0u);
}

// ------------------------------------------------- Sanitize regression

TEST(Sanitize, DuplicateMergeIsOrderIndependent)
{
    // Permutations of the same duplicate set must sanitize to
    // bitwise-identical merged values (the service's fit cache keys
    // on a permutation-invariant content hash).
    const std::vector<std::size_t> idx_a = {3, 5, 3, 7, 5, 3};
    const Vector vals_a{10.0, 20.0, 10.3, 5.0, 19.7, 10.6};
    const std::vector<std::size_t> idx_b = {7, 3, 5, 3, 3, 5};
    const Vector vals_b{5.0, 10.6, 19.7, 10.3, 10.0, 20.0};

    const auto sa = estimators::sanitizeObservations(idx_a, vals_a, 16);
    const auto sb = estimators::sanitizeObservations(idx_b, vals_b, 16);
    ASSERT_TRUE(sa.modified);
    ASSERT_TRUE(sb.modified);
    EXPECT_EQ(sa.merged, 3u);
    EXPECT_EQ(sb.merged, 3u);
    ASSERT_EQ(sa.indices.size(), 3u);
    ASSERT_EQ(sb.indices.size(), 3u);
    for (std::size_t i = 0; i < sa.indices.size(); ++i) {
        for (std::size_t j = 0; j < sb.indices.size(); ++j) {
            if (sa.indices[i] != sb.indices[j])
                continue;
            EXPECT_EQ(sa.values[i], sb.values[j])
                << "config " << sa.indices[i];
        }
    }
}

TEST(Sanitize, IdenticalDuplicateRowsMergeExactly)
{
    // Trace replays repeat rows verbatim; the merge must reproduce
    // the reading bit-exactly, not an average with rounding error.
    const std::vector<std::size_t> idx = {4, 4, 4};
    const double v = 0.1 + 0.2; // Not exactly representable.
    const Vector vals{v, v, v};
    const auto s = estimators::sanitizeObservations(idx, vals, 16);
    ASSERT_TRUE(s.modified);
    ASSERT_EQ(s.values.size(), 1u);
    EXPECT_EQ(s.values[0], v);
}

// --------------------------------------------- Predictive variance

TEST(LeoFit, PredictiveVarianceAtEveryConfig)
{
    World w;
    estimators::LeoEstimator leo;
    std::vector<Vector> prior;
    for (const auto &p : workloads::standardSuite()) {
        if (p.name == "x264")
            continue;
        workloads::ApplicationModel m(p, w.machine);
        prior.push_back(
            workloads::computeGroundTruth(m, w.space).performance);
    }
    workloads::ApplicationModel target(
        workloads::profileByName("x264"), w.machine);
    const auto gt = workloads::computeGroundTruth(target, w.space);
    const std::vector<std::size_t> obs = {0, w.space.size() / 2,
                                          w.space.size() - 1};
    estimators::LeoFit fit;
    const auto est = leo.estimateMetric(w.space, prior, obs,
                                        gt.performance.gather(obs),
                                        nullptr, &fit);
    ASSERT_TRUE(est.reliable);
    for (std::size_t c = 0; c < w.space.size(); ++c) {
        const double v = fit.predictiveVarianceAt(c);
        EXPECT_TRUE(std::isfinite(v)) << "config " << c;
        EXPECT_GE(v, 0.0) << "config " << c;
    }
    EXPECT_THROW(fit.predictiveVarianceAt(w.space.size() + 99),
                 FatalError);
}

// ------------------------------------------------- Service determinism

TEST(ScenarioService, SchedulesInvariantToShardsWorkersSnapshot)
{
    World w;
    scenario::Spec spec;
    spec.name = "svc_trace";
    spec.workload = scenario::WorkloadKind::Trace;
    spec.frames = 24;
    spec.traceText = twoSegmentCsv(w.space);
    spec.arrivals = {3, 2, 0.15};
    spec.seed = 60;

    estimators::LeoEstimator leo;
    auto prior = std::make_shared<const telemetry::ProfileStore>(
        w.store);

    scenario::Scenario sc_a(spec, w.machine, w.space);
    parallel::ThreadPool pool_a(0);
    support::ServiceRunOptions opt_a;
    opt_a.service.shards = 1;
    const auto a =
        support::runScenarioService(sc_a, leo, prior, pool_a, opt_a);

    scenario::Scenario sc_b(spec, w.machine, w.space);
    parallel::ThreadPool pool_b(2);
    support::ServiceRunOptions opt_b;
    opt_b.service.shards = 4;
    opt_b.snapshotAtWindow = 12; // Mid-run save/restore round-trip.
    const auto b =
        support::runScenarioService(sc_b, leo, prior, pool_b, opt_b);

    EXPECT_FALSE(a.restored);
    EXPECT_TRUE(b.restored);
    EXPECT_EQ(a.windowsProcessed, 24u);
    EXPECT_EQ(b.windowsProcessed, 24u);
    ASSERT_EQ(a.tenants.size(), 3u);
    ASSERT_EQ(b.tenants.size(), 3u);
    ASSERT_EQ(a.schedules.size(), b.schedules.size());
    for (std::size_t t = 0; t < a.schedules.size(); ++t) {
        ASSERT_EQ(a.schedules[t].size(), b.schedules[t].size())
            << "tenant " << t;
        for (std::size_t i = 0; i < a.schedules[t].size(); ++i)
            EXPECT_EQ(a.schedules[t][i], b.schedules[t][i])
                << "tenant " << t << " window " << i;
    }
}

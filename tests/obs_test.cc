/**
 * @file
 * Unit tests for the leo::obs observability subsystem: the metrics
 * registry (counters, gauges, histograms, each instrument's own
 * cells, thread-count-invariant counts, JSON export), the tracer
 * (ring capacity, drop counting, Chrome trace_event output) and the
 * two integration guarantees the rest of the pipeline relies on —
 * the instrumented fit is bitwise identical to the same fit with the
 * registry disabled, and counter snapshots are identical at any
 * thread count that fits fan out on.
 */
// leo-lint: allow-file(obs-naming) — registry mechanics are tested
// with synthetic instrument names, not the production constants.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "linalg/workspace.hh"
#include "obs/obs.hh"
#include "parallel/parallel_for.hh"
#include "platform/config_space.hh"
#include "linalg/serialize.hh"
#include "runtime/controller.hh"
#include "service/service.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;

namespace
{

/** A fixed-seed fit problem (mirrors the estimator tests' setup). */
struct FitProblem
{
    std::vector<linalg::Vector> prior;
    std::vector<std::size_t> idx;
    linalg::Vector vals;
};

FitProblem
makeFitProblem(std::size_t n_obs)
{
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{2024};

    FitProblem p;
    for (const auto &prof : workloads::standardSuite()) {
        if (prof.name == "kmeans")
            continue;
        workloads::ApplicationModel app(prof, machine);
        p.prior.push_back(
            workloads::computeGroundTruth(app, space).performance);
    }
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), machine);
    telemetry::Profiler prof(monitor, meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, space, pol, n_obs, rng);
    p.idx = obs.indices;
    p.vals = obs.performance;
    return p;
}

/** Exact (bitwise, via ==) equality of two vectors. */
void
expectExactlyEqual(const linalg::Vector &a, const linalg::Vector &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << "[" << i << "]";
}

/** Exact (bitwise, via ==) equality of two matrices. */
void
expectExactlyEqual(const linalg::Matrix &a, const linalg::Matrix &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << what << "(" << r << "," << c << ")";
}

/** A gauge's value in a snapshot of reg (NaN when absent). */
double
gaugeIn(const obs::Registry &reg, const std::string &name)
{
    for (const auto &[key, value] : reg.snapshot().gauges)
        if (key == name)
            return value;
    return std::nan("");
}

/** Counter name/value pairs of a snapshot, for whole-map compares. */
std::vector<std::pair<std::string, std::uint64_t>>
counterMap(const obs::Snapshot &s)
{
    return s.counters;
}

} // namespace

// ------------------------------------------------------- null sink

TEST(ObsRegistry, NullSinkHandlesAreInert)
{
    const obs::Counter c;
    const obs::Gauge g;
    const obs::Histogram h;
    c.add(5);
    g.set(3.0);
    h.record(1.0);
    EXPECT_EQ(c.value(), 0u);
    EXPECT_FALSE(h.live());
    {
        obs::ScopedMs timer(h); // must not crash or record
    }
}

TEST(ObsRegistry, SetEnabledFalseDropsWrites)
{
    obs::Registry reg;
    const obs::Counter c = reg.counter("x.events.seen");
    c.add(2);
    reg.setEnabled(false);
    c.add(40);
    EXPECT_EQ(c.value(), 2u);
    reg.setEnabled(true);
    c.add(1);
    EXPECT_EQ(c.value(), 3u);
}

// ------------------------------------------------------ instruments

TEST(ObsRegistry, CounterAccumulatesAndSnapshotSortsByName)
{
    obs::Registry reg;
    reg.counter("b.second.one").add(7);
    reg.counter("a.first.one").add(3);
    const obs::Snapshot s = reg.snapshot();
    ASSERT_EQ(s.counters.size(), 2u);
    EXPECT_EQ(s.counters[0].first, "a.first.one");
    EXPECT_EQ(s.counters[0].second, 3u);
    EXPECT_EQ(s.counters[1].first, "b.second.one");
    EXPECT_EQ(s.counters[1].second, 7u);
    EXPECT_EQ(s.counterOr("missing.counter", 42u), 42u);
}

TEST(ObsRegistry, ReregistrationReturnsTheSameInstrument)
{
    obs::Registry reg;
    reg.counter("dup.events.seen").add(1);
    reg.counter("dup.events.seen").add(1);
    EXPECT_EQ(reg.counter("dup.events.seen").value(), 2u);

    // Histogram edges are fixed at first registration.
    reg.histogram("dup.vals.unit", {1.0, 2.0});
    const obs::Histogram again =
        reg.histogram("dup.vals.unit", {99.0});
    again.record(1.5);
    const obs::Snapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *h = snap.histogram("dup.vals.unit");
    ASSERT_NE(h, nullptr);
    ASSERT_EQ(h->edges.size(), 2u);
    EXPECT_EQ(h->edges[0], 1.0);
    EXPECT_EQ(h->counts[1], 1u); // 1.5 in (1, 2]
}

TEST(ObsRegistry, GaugeLastWriteWins)
{
    obs::Registry reg;
    const obs::Gauge g = reg.gauge("x.level.units");
    g.set(1.0);
    g.set(2.0);
    g.set(3.0);
    EXPECT_EQ(gaugeIn(reg, "x.level.units"), 3.0);
    // A later write from another thread wins too: the gauge is one
    // cell, and set() is a plain store into it.
    std::thread t([&]() { g.set(5.0); });
    t.join();
    EXPECT_EQ(gaugeIn(reg, "x.level.units"), 5.0);
}

TEST(ObsRegistry, HistogramBucketEdges)
{
    // A value v lands in the first bucket with v <= edges[i]; above
    // the last edge is the overflow bucket.
    obs::Registry reg;
    const obs::Histogram h =
        reg.histogram("x.vals.unit", {1.0, 2.0, 4.0});
    EXPECT_TRUE(h.live());
    const double samples[] = {0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0};
    for (double v : samples)
        h.record(v);

    const obs::Snapshot snap = reg.snapshot();
    const obs::HistogramSnapshot *s = snap.histogram("x.vals.unit");
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(s->counts.size(), 4u); // 3 edges + overflow
    EXPECT_EQ(s->counts[0], 2u);     // 0.5, 1.0
    EXPECT_EQ(s->counts[1], 2u);     // 1.5, 2.0
    EXPECT_EQ(s->counts[2], 2u);     // 3.0, 4.0
    EXPECT_EQ(s->counts[3], 1u);     // 5.0
    EXPECT_EQ(s->count, 7u);
    EXPECT_EQ(s->min, 0.5);
    EXPECT_EQ(s->max, 5.0);
    EXPECT_EQ(s->sum, 0.5 + 1.0 + 1.5 + 2.0 + 3.0 + 4.0 + 5.0);
}

TEST(ObsRegistry, DefaultTimeBucketsAreStrictlyIncreasing)
{
    const std::vector<double> e = obs::defaultTimeBucketsMs();
    ASSERT_GE(e.size(), 8u);
    for (std::size_t i = 1; i < e.size(); ++i)
        EXPECT_LT(e[i - 1], e[i]) << i;
}

TEST(ObsRegistry, ManyInstrumentsKeepTheirOwnCells)
{
    // Thousands of instruments of each kind in one registry, more
    // cells than any fixed table would hold: each reads back the
    // value written to it and nothing else. Zero-padded names keep
    // the snapshot's name order equal to the index order.
    constexpr std::size_t kCounters = 5000, kGauges = 5000, kHists = 200;
    const auto name = [](const char *kind, std::size_t i) {
        std::string digits = std::to_string(i);
        digits.insert(0, 5 - digits.size(), '0');
        return std::string("many.") + kind + digits + ".units";
    };
    const std::vector<double> edges = obs::defaultTimeBucketsMs();
    // Histogram i records one value, (i + 1) / 64 ms.
    const auto hist_value = [](std::size_t i) {
        return static_cast<double>(i + 1) / 64.0;
    };

    obs::Registry reg;
    std::vector<obs::Counter> counters;
    for (std::size_t i = 0; i < kCounters; ++i) {
        counters.push_back(reg.counter(name("c", i)));
        counters.back().add(i + 1);
    }
    for (std::size_t i = 0; i < kGauges; ++i)
        reg.gauge(name("g", i)).set(static_cast<double>(i) + 0.5);
    for (std::size_t i = 0; i < kHists; ++i)
        reg.histogram(name("h", i), edges).record(hist_value(i));

    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), kCounters);
    ASSERT_EQ(snap.gauges.size(), kGauges);
    ASSERT_EQ(snap.histograms.size(), kHists);
    for (std::size_t i = 0; i < kCounters; ++i) {
        EXPECT_EQ(counters[i].value(), i + 1) << i;
        EXPECT_EQ(snap.counters[i].first, name("c", i));
        EXPECT_EQ(snap.counters[i].second, i + 1) << i;
    }
    for (std::size_t i = 0; i < kGauges; ++i) {
        EXPECT_EQ(snap.gauges[i].first, name("g", i));
        EXPECT_EQ(snap.gauges[i].second, static_cast<double>(i) + 0.5)
            << i;
    }
    for (std::size_t i = 0; i < kHists; ++i) {
        const obs::HistogramSnapshot &h = snap.histograms[i];
        const double v = hist_value(i);
        std::vector<std::uint64_t> counts(edges.size() + 1, 0);
        counts[static_cast<std::size_t>(
            std::lower_bound(edges.begin(), edges.end(), v) -
            edges.begin())] = 1;
        EXPECT_EQ(h.name, name("h", i));
        EXPECT_EQ(h.edges, edges) << i;
        EXPECT_EQ(h.counts, counts) << i;
        EXPECT_EQ(h.count, 1u) << i;
        EXPECT_EQ(h.sum, v) << i;
        EXPECT_EQ(h.min, v) << i;
        EXPECT_EQ(h.max, v) << i;
    }
}

TEST(ObsRegistry, SameNameInTwoKindsAreTwoInstruments)
{
    // Each kind has its own names: a gauge and a histogram under a
    // counter's name are two more instruments, and none of the three
    // writes another's cells or the other gauge's.
    const std::string shared = "a.events.seen";
    obs::Registry reg;
    const obs::Counter c = reg.counter(shared);
    const obs::Gauge other = reg.gauge("b.level.units");
    const obs::Gauge g = reg.gauge(shared);
    const obs::Histogram h = reg.histogram(shared, {1.0, 2.0});
    c.add(3);
    other.set(2.5);
    g.set(7.0);
    h.record(1.5);

    EXPECT_EQ(c.value(), 3u);
    const obs::Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 1u);
    EXPECT_EQ(snap.counters[0].first, shared);
    EXPECT_EQ(snap.counters[0].second, 3u);
    ASSERT_EQ(snap.gauges.size(), 2u);
    EXPECT_EQ(snap.gauges[0].first, shared);
    EXPECT_EQ(snap.gauges[0].second, 7.0);
    EXPECT_EQ(snap.gauges[1].first, "b.level.units");
    EXPECT_EQ(snap.gauges[1].second, 2.5);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].name, shared);
    EXPECT_EQ(snap.histograms[0].counts,
              (std::vector<std::uint64_t>{0, 1, 0}));

    // The JSON export lists the name once in each of its sections,
    // with that section's value.
    const std::string json = obs::snapshotJson(reg);
    const std::size_t gauges_at = json.find("\"gauges\"");
    const std::size_t hists_at = json.find("\"histograms\"");
    ASSERT_NE(gauges_at, std::string::npos);
    ASSERT_NE(hists_at, std::string::npos);
    const std::string sections[] = {
        json.substr(0, gauges_at),
        json.substr(gauges_at, hists_at - gauges_at),
        json.substr(hists_at)};
    const std::string entries[] = {"\"a.events.seen\": 3",
                                   "\"a.events.seen\": 7",
                                   "\"a.events.seen\": {\"edges\": [1, 2], "
                                   "\"counts\": [0, 1, 0]"};
    const std::string key = "\"" + shared + "\"";
    for (std::size_t k = 0; k < 3; ++k) {
        const std::string &sec = sections[k];
        const std::size_t at = sec.find(key);
        EXPECT_NE(at, std::string::npos) << k;
        EXPECT_EQ(sec.find(key, at + 1), std::string::npos) << k;
        EXPECT_EQ(sec.compare(at, entries[k].size(), entries[k]), 0)
            << k << ": " << sec;
    }
    EXPECT_NE(sections[1].find("\"b.level.units\": 2.5"),
              std::string::npos);
}

// ------------------------------------------------------ determinism

TEST(ObsRegistry, CountsAreIdenticalAcrossThreadCounts)
{
    // The same total workload, partitioned across 1, 4 and 16
    // threads, must produce identical counter values and histogram
    // bucket counts: every write is an atomic add on the
    // instrument's own cells, and integer sums commute. This is the
    // guarantee behind identical metric snapshots at any pool size.
    constexpr std::size_t kItems = 1600;
    auto run = [](std::size_t threads) {
        obs::Registry reg;
        const obs::Counter c = reg.counter("work.items.done");
        const obs::Histogram h =
            reg.histogram("work.size.unit", {1.0, 3.0, 5.0});
        auto worker = [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
                c.add(1);
                h.record(static_cast<double>(i % 7));
            }
        };
        std::vector<std::thread> pool;
        const std::size_t per = kItems / threads;
        for (std::size_t t = 0; t < threads; ++t)
            pool.emplace_back(worker, t * per, (t + 1) * per);
        for (std::thread &t : pool)
            t.join();
        return reg.snapshot();
    };

    const obs::Snapshot s1 = run(1);
    for (std::size_t threads : {4u, 16u}) {
        const obs::Snapshot sn = run(threads);
        EXPECT_EQ(counterMap(sn), counterMap(s1)) << threads;
        const obs::HistogramSnapshot *h1 =
            s1.histogram("work.size.unit");
        const obs::HistogramSnapshot *hn =
            sn.histogram("work.size.unit");
        ASSERT_NE(h1, nullptr);
        ASSERT_NE(hn, nullptr);
        EXPECT_EQ(hn->counts, h1->counts) << threads;
        EXPECT_EQ(hn->count, h1->count) << threads;
        EXPECT_EQ(hn->min, h1->min) << threads;
        EXPECT_EQ(hn->max, h1->max) << threads;
    }
    EXPECT_EQ(s1.counterOr("work.items.done"), kItems);
}

// ------------------------------------------------------ JSON export

TEST(ObsRegistry, JsonSnapshotListsEveryInstrument)
{
    obs::Registry reg;
    reg.counter("j.events.seen").add(9);
    reg.gauge("j.level.units").set(2.5);
    reg.histogram("j.vals.unit", {1.0}).record(0.5);

    const std::string json = obs::snapshotJson(reg);
    EXPECT_NE(json.find("\"j.events.seen\""), std::string::npos);
    EXPECT_NE(json.find("\"j.level.units\""), std::string::npos);
    EXPECT_NE(json.find("\"j.vals.unit\""), std::string::npos);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
}

// ----------------------------------------------------------- tracer

TEST(ObsTracer, SpansWhileDisabledAreInert)
{
    obs::Tracer &tracer = obs::Tracer::global();
    ASSERT_FALSE(tracer.enabled());
    const std::uint64_t dropped = tracer.dropped();
    {
        obs::Span span("test.disabled");
        span.arg("k", 1.0);
    }
    EXPECT_EQ(tracer.dropped(), dropped);
}

TEST(ObsTracer, RingOverflowSetsDropCounter)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.enable(4);
    for (int i = 0; i < 6; ++i) {
        obs::Span span("test.overflow");
        span.arg("i", static_cast<double>(i));
    }
    tracer.disable();
    EXPECT_EQ(tracer.recorded(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    tracer.clear();
    EXPECT_EQ(tracer.recorded(), 0u);
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(ObsTracer, ChromeTraceJsonIsWellFormed)
{
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable(64);
    {
        obs::Span outer("test.outer");
        outer.arg("depth", 0.0);
        obs::Span inner("test.inner", "testcat");
        inner.arg("depth", 1.0);
    }
    tracer.disable();
    ASSERT_EQ(tracer.recorded(), 2u);

    const std::string json = tracer.chromeTraceJson();
    EXPECT_EQ(json.find("{"), 0u);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"test.outer\""), std::string::npos);
    EXPECT_NE(json.find("\"test.inner\""), std::string::npos);
    EXPECT_NE(json.find("\"testcat\""), std::string::npos);
    EXPECT_NE(json.find("\"depth\""), std::string::npos);
    // Metadata names the process for Perfetto.
    EXPECT_NE(json.find("process_name"), std::string::npos);
    tracer.clear();
}

// ------------------------------------------------------ integration

TEST(ObsIntegration, InstrumentedFitMatchesReferencePathBitwise)
{
    // The 0-ULP guarantee: the fit with metrics on and tracing
    // actively recording computes exactly the same bits as the
    // reference — the same fit with the registry disabled (the
    // LEO_OBS=off null sink) and no tracer.
    const FitProblem p = makeFitProblem(12);
    const estimators::LeoEstimator leo;
    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();

    reg.setEnabled(false);
    linalg::Workspace ws_off;
    const estimators::LeoFit bare =
        leo.fitMetric(p.prior, p.idx, p.vals, &ws_off);

    reg.setEnabled(true);
    const std::uint64_t fits_before =
        reg.counter(obs::names::kEmFitsCompleted).value();
    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable(1u << 12);
    linalg::Workspace ws_on;
    const estimators::LeoFit traced =
        leo.fitMetric(p.prior, p.idx, p.vals, &ws_on);
    tracer.disable();
    EXPECT_GT(tracer.recorded(), 0u); // the fit did emit spans
    tracer.clear();
    EXPECT_EQ(reg.counter(obs::names::kEmFitsCompleted).value(),
              fits_before + 1); // and did count
    reg.setEnabled(was_enabled);

    expectExactlyEqual(traced.prediction, bare.prediction, "prediction");
    EXPECT_EQ(traced.sigma2, bare.sigma2);
    EXPECT_EQ(traced.iterations, bare.iterations);
    EXPECT_EQ(traced.converged, bare.converged);
    EXPECT_EQ(traced.logLikelihoodTrace, bare.logLikelihoodTrace);
    EXPECT_EQ(traced.kept.units, bare.kept.units);
    expectExactlyEqual(traced.kept.w, bare.kept.w, "kept.w");
    expectExactlyEqual(traced.kept.l, bare.kept.l, "kept.l");
    expectExactlyEqual(traced.coeff, bare.coeff, "coeff");
    EXPECT_EQ(traced.alphaDiag, bare.alphaDiag);
    expectExactlyEqual(traced.varCore, bare.varCore, "varCore");
}

namespace
{

/** One span of a Chrome trace export: name, start, duration and the
 *  raw text of its args object (empty when it has none). */
struct TracedSpan
{
    std::string name;
    double ts = 0.0;
    double dur = 0.0;
    std::string args;
};

/** The "X" events of a chromeTraceJson() document (one per line). */
std::vector<TracedSpan>
parseSpans(const std::string &json)
{
    std::vector<TracedSpan> spans;
    std::istringstream lines(json);
    std::string line;
    while (std::getline(lines, line)) {
        const std::size_t name = line.find("{\"name\": \"");
        const std::size_t ts = line.find("\"ts\": ");
        const std::size_t dur = line.find("\"dur\": ");
        if (name == std::string::npos || ts == std::string::npos ||
            dur == std::string::npos)
            continue;
        const std::size_t begin = name + 10;
        TracedSpan s;
        s.name = line.substr(begin, line.find('"', begin) - begin);
        s.ts = std::stod(line.substr(ts + 6));
        s.dur = std::stod(line.substr(dur + 7));
        const std::size_t args = line.find("\"args\": ");
        if (args != std::string::npos)
            s.args = line.substr(args);
        spans.push_back(s);
    }
    return spans;
}

} // namespace

TEST(ObsIntegration, FitSpanCoversTheWholeFit)
{
    // leo.em.fit opens before sanitization and closes after the
    // prediction: the basis a raw-vector fit builds and every EM
    // iteration sit inside the one fit span, which reports the fit's
    // shape and whether EM converged.
    const FitProblem p = makeFitProblem(12);
    platform::Machine machine;
    const auto space = platform::ConfigSpace::coreOnly(machine);
    const estimators::LeoEstimator leo;

    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable(1u << 12);
    const auto est = leo.estimateMetric(space, p.prior, p.idx, p.vals);
    tracer.disable();
    const std::vector<TracedSpan> spans =
        parseSpans(tracer.chromeTraceJson());
    tracer.clear();
    ASSERT_EQ(est.values.size(), space.size());

    const TracedSpan *fit = nullptr;
    std::size_t fits = 0, bases = 0, iters = 0;
    for (const TracedSpan &s : spans)
        if (s.name == obs::names::kEmFitSpan) {
            fit = &s;
            ++fits;
        }
    ASSERT_EQ(fits, 1u);
    for (const char *key : {"apps", "configs", "rank", "iters", "converged"})
        EXPECT_NE(fit->args.find(std::string("\"").append(key).append("\": ")),
                  std::string::npos)
            << key << " missing from " << fit->args;
    for (const TracedSpan &s : spans) {
        if (s.name != obs::names::kEmPriorBasisSpan &&
            s.name != obs::names::kEmIterSpan)
            continue;
        (s.name == obs::names::kEmIterSpan ? iters : bases) += 1;
        // The export prints microseconds to 3 decimals.
        EXPECT_GE(s.ts, fit->ts) << s.name;
        EXPECT_LE(s.ts + s.dur, fit->ts + fit->dur + 0.002) << s.name;
    }
    EXPECT_EQ(bases, 1u);
    EXPECT_GE(iters, 1u);
}

TEST(ObsIntegration, SnapshotAndRestoreSpansReportTheirSize)
{
    // leo.service.snapshot and leo.service.restore each cover one
    // call and report the blob's bytes, the sessions and the prior
    // versions it carries.
    platform::Machine machine;
    const auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{7};
    const telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter, rng);
    auto prior = std::make_shared<const telemetry::ProfileStore>(
        store.without("x264"));
    const estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    service::Service svc(space, leo, prior, pool, {});
    for (std::uint64_t seed : {1, 2})
        ASSERT_TRUE(svc.admit({"x264", 10.0, 0.0, seed}).has_value());
    service::Service restored(space, leo, prior, pool, {});

    obs::Tracer &tracer = obs::Tracer::global();
    tracer.clear();
    tracer.enable(1u << 12);
    linalg::ByteWriter w;
    svc.saveSnapshot(w);
    linalg::ByteReader r(w.bytes());
    const bool ok = restored.restoreSnapshot(r);
    tracer.disable();
    const std::vector<TracedSpan> spans =
        parseSpans(tracer.chromeTraceJson());
    tracer.clear();
    ASSERT_TRUE(ok);

    const std::string expected =
        "\"bytes\": " + std::to_string(w.bytes().size()) +
        ", \"sessions\": 2, \"versions\": 1}";
    for (const char *name : {obs::names::kServiceSnapshotSpan,
                             obs::names::kServiceRestoreSpan}) {
        std::size_t seen = 0;
        for (const TracedSpan &s : spans) {
            if (s.name != name)
                continue;
            ++seen;
            EXPECT_NE(s.args.find(expected), std::string::npos)
                << name << ": " << s.args;
        }
        EXPECT_EQ(seen, 1u) << name;
    }
}

TEST(ObsIntegration, FitCountersIdenticalAcrossThreadCounts)
{
    // The registry delta of six deterministic fits must be the same
    // whether parallelFor fans them across 1, 4 or 16 threads: each
    // fit is serial and bitwise thread-count-invariant, and integer
    // counter adds are order-free.
    const FitProblem p = makeFitProblem(12);
    const platform::Machine machine;
    const auto space = platform::ConfigSpace::coreOnly(machine);
    const estimators::LeoEstimator leo;
    obs::Registry &reg = obs::Registry::global();

    // Drop one observation per fit: six distinct fits.
    std::vector<std::vector<std::size_t>> idx(6);
    std::vector<linalg::Vector> vals(6);
    for (std::size_t k = 0; k < 6; ++k) {
        idx[k].assign(p.idx.begin() + k, p.idx.end());
        vals[k] = linalg::Vector(p.idx.size() - k);
        for (std::size_t j = k; j < p.idx.size(); ++j)
            vals[k][j - k] = p.vals[j];
    }

    auto em_delta = [&](std::size_t threads) {
        parallel::ThreadPool pool(threads - 1);
        std::vector<estimators::MetricEstimate> results(6);
        const obs::Snapshot before = reg.snapshot();
        parallel::parallelFor(pool, 6, [&](std::size_t k) {
            results[k] =
                leo.estimateMetric(space, p.prior, idx[k], vals[k]);
        });
        const obs::Snapshot after = reg.snapshot();
        std::vector<std::pair<std::string, std::uint64_t>> delta;
        for (const auto &kv : after.counters) {
            if (kv.first.rfind("leo.em.", 0) != 0)
                continue;
            delta.emplace_back(
                kv.first,
                kv.second - before.counterOr(kv.first));
        }
        return delta;
    };

    const auto d1 = em_delta(1);
    ASSERT_FALSE(d1.empty());
    EXPECT_EQ(em_delta(4), d1);
    EXPECT_EQ(em_delta(16), d1);
}

TEST(ObsIntegration, ControllerCountersAreInstanceLocal)
{
    // The controller's degradation counters are instance-local: two
    // controllers never see each other's events.
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::ProfileStore store({});
    runtime::ControllerOptions opts;
    runtime::EnergyController a(space, nullptr, store, opts);
    runtime::EnergyController b(space, nullptr, store, opts);

    telemetry::Sample bad;
    bad.configIndex = 0;
    bad.heartbeatRate = std::numeric_limits<double>::quiet_NaN();
    bad.powerWatts = 90.0;
    a.recordMeasurement(bad);
    a.recordMeasurement(bad);

    EXPECT_EQ(a.samplesRejected(), 2u);
    EXPECT_EQ(b.samplesRejected(), 0u);
}

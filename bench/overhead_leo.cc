/**
 * @file
 * Section 6.7: the cost of running LEO itself.
 *
 * The paper measures 0.8 s average execution time per metric on the
 * 2012-era testbed. This google-benchmark binary times one EM fit
 * (per metric) as a function of the configuration-space size, plus
 * the downstream hull walk, which is negligible by comparison.
 *
 * Two fit variants are timed so the perf trajectory of the hot
 * loop stays visible:
 *
 *  - BM_LeoFit: one cold fit from the raw prior vectors (basis build
 *    included).
 *  - BM_LeoWarmRound: one active-sampling-style round — a warm
 *    refit from the previous round's fit with a persistent
 *    workspace, after four new observations arrive.
 *
 * BM_PriorBasisBuild times the stage a controller's first decision
 * runs before either fit: one metric's PriorBasis (normalize,
 * orthonormalize and factor the prior shapes).
 *
 * Every fit row also reports per-EM-iteration time (ms_per_iter), and
 * the binary always writes machine-readable results to
 * BENCH_leo.json (google-benchmark JSON) unless --benchmark_out is
 * given explicitly; tools/bench_diff.py compares two such files.
 *
 * Timing goes through the leo::obs registry (a `bench.fit.ms`
 * histogram and a `bench.fit.iters` counter, read back as snapshot
 * deltas) rather than hand-rolled chrono, so the bench exercises the
 * same instruments the pipeline exports. Extra flags on top of the
 * google-benchmark set:
 *
 *   --trace=<file>    enable tracing and write a Chrome trace_event
 *                     JSON (load in Perfetto or chrome://tracing)
 *   --metrics=<file>  write the final metrics snapshot as JSON
 *
 * Under LEO_OBS=off the registry is a null sink; the bench then falls
 * back to plain steady_clock so its JSON keys stay populated (that
 * mode exists to measure the bare pipeline for the overhead gate).
 */

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/obs.hh"

#include "estimators/leo.hh"
#include "estimators/prior_basis.hh"
#include "linalg/workspace.hh"
#include "optimizer/schedule.hh"
#include "platform/config_space.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;

namespace
{

struct FitSetup
{
    platform::Machine machine;
    platform::ConfigSpace space;
    std::vector<linalg::Vector> prior;
    std::vector<std::size_t> obs_idx;
    linalg::Vector obs_vals;
};

/** Build a fit problem on a space with the given speed stride. */
FitSetup
makeSetup(unsigned core_stride, unsigned speed_stride)
{
    FitSetup s{platform::Machine{},
               platform::ConfigSpace::reducedFactorial(
                   platform::Machine{}, core_stride, speed_stride),
               {},
               {},
               {}};
    stats::Rng rng(7);
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), s.machine, s.space, monitor,
        meter, rng);
    auto loo = store.without("kmeans");
    s.prior = estimators::priorVectors(
        loo, estimators::Metric::Performance);

    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), s.machine);
    telemetry::Profiler prof(monitor, meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, s.space, pol, 20, rng);
    s.obs_idx = obs.indices;
    s.obs_vals = obs.performance;
    return s;
}

/** Time one fit call and fold per-EM-iteration cost into counters;
 *  `ms_key` selects the histogram the timings flow through (the fit
 *  variants each own a key so bench_diff can track them separately). */
template <typename Fit>
void
runTimedFits(benchmark::State &state, std::size_t configs, Fit &&fit,
             const char *ms_key = obs::names::kBenchFitMs)
{
    obs::Registry &reg = obs::Registry::global();
    const obs::Histogram fit_ms =
        reg.histogram(ms_key, obs::defaultTimeBucketsMs());
    const obs::Counter fit_iters = reg.counter(obs::names::kBenchFitIters);

    // Registry deltas around the timed loop; when the registry is the
    // null sink (LEO_OBS=off — the bare-pipeline overhead baseline)
    // fall back to plain chrono so the JSON keys stay populated.
    const bool via_obs = fit_ms.live();
    const obs::Snapshot before = reg.snapshot();
    double chrono_ms = 0.0;
    std::size_t chrono_iters = 0;
    for (auto _ : state) {
        if (via_obs) {
            estimators::LeoFit f = [&]() {
                obs::ScopedMs timer(fit_ms);
                return fit();
            }();
            benchmark::DoNotOptimize(f.prediction);
            fit_iters.add(f.iterations);
        } else {
            const auto t0 = std::chrono::steady_clock::now();
            estimators::LeoFit f = fit();
            const auto t1 = std::chrono::steady_clock::now();
            benchmark::DoNotOptimize(f.prediction);
            chrono_ms += std::chrono::duration<double, std::milli>(
                             t1 - t0).count();
            chrono_iters += f.iterations;
        }
    }
    const obs::Snapshot after = reg.snapshot();

    double total_ms = chrono_ms;
    std::size_t total_iters = chrono_iters;
    if (via_obs) {
        const obs::HistogramSnapshot *h0 = before.histogram(ms_key);
        const obs::HistogramSnapshot *h1 = after.histogram(ms_key);
        total_ms = (h1 ? h1->sum : 0.0) - (h0 ? h0->sum : 0.0);
        total_iters = static_cast<std::size_t>(
            after.counterOr(obs::names::kBenchFitIters) -
            before.counterOr(obs::names::kBenchFitIters));
    }

    state.counters["configs"] = static_cast<double>(configs);
    state.counters["em_iters"] = static_cast<double>(total_iters) /
                                 static_cast<double>(state.iterations());
    if (total_iters > 0)
        state.counters["ms_per_iter"] =
            total_ms / static_cast<double>(total_iters);
}

/** Cold fit from the raw prior vectors. */
void
BM_LeoFit(benchmark::State &state)
{
    // Space size shrinks with the stride arguments.
    const unsigned core_stride = static_cast<unsigned>(state.range(0));
    const unsigned speed_stride =
        static_cast<unsigned>(state.range(1));
    const FitSetup s = makeSetup(core_stride, speed_stride);
    estimators::LeoEstimator est;
    runTimedFits(state, s.space.size(), [&]() {
        return est.fitMetric(s.prior, s.obs_idx, s.obs_vals);
    });
}

/**
 * One warm active-sampling round: the previous round fitted 16
 * observations; 4 new ones arrive and the model is refitted from the
 * previous theta with a persistent workspace (exactly what
 * VarianceGuidedSampler and the runtime controller do per round).
 */
void
BM_LeoWarmRound(benchmark::State &state)
{
    const unsigned core_stride = static_cast<unsigned>(state.range(0));
    const unsigned speed_stride =
        static_cast<unsigned>(state.range(1));
    const FitSetup s = makeSetup(core_stride, speed_stride);
    estimators::LeoEstimator est;
    linalg::Workspace ws;
    const std::vector<std::size_t> prev_idx(s.obs_idx.begin(),
                                            s.obs_idx.end() - 4);
    linalg::Vector prev_vals(s.obs_vals.size() - 4);
    for (std::size_t i = 0; i < prev_vals.size(); ++i)
        prev_vals[i] = s.obs_vals[i];
    const estimators::LeoFit prev = est.fitMetric(
        s.prior, prev_idx, prev_vals, &ws, nullptr);
    runTimedFits(state, s.space.size(), [&]() {
        return est.fitMetric(s.prior, s.obs_idx, s.obs_vals, &ws,
                             &prev);
    });
}

/**
 * Headroom probe: a synthetic n = 16384 problem (no machine model —
 * config spaces that large do not exist on the testbed) shows the
 * fit's per-iteration cost scaling with the number of applications,
 * not n; timings flow through the `lowrank` histogram key.
 */
void
BM_LeoLowRankHeadroom(benchmark::State &state)
{
    const std::size_t n = 16384;
    const std::size_t m = 25;
    const std::size_t s_obs = 20;
    stats::Rng rng(99);
    std::vector<linalg::Vector> prior(m, linalg::Vector(n));
    for (std::size_t i = 0; i < m; ++i) {
        const double f1 = rng.uniform(1.0, 6.0);
        const double f2 = rng.uniform(6.0, 20.0);
        const double lift = rng.uniform(20.0, 200.0);
        for (std::size_t j = 0; j < n; ++j) {
            const double x =
                static_cast<double>(j) / static_cast<double>(n);
            prior[i][j] =
                lift * (2.0 + std::sin(f1 * x) + 0.3 * std::cos(f2 * x));
        }
    }
    std::vector<std::size_t> idx =
        rng.sampleWithoutReplacement(n, s_obs);
    linalg::Vector vals(s_obs);
    for (std::size_t i = 0; i < s_obs; ++i)
        vals[i] = 0.4 * prior[0][idx[i]] *
                  (1.0 + 0.03 * rng.gaussian());

    estimators::LeoEstimator est;
    runTimedFits(
        state, n,
        [&]() { return est.fitMetric(prior, idx, vals); },
        obs::names::kBenchLowRankMs);
}

/**
 * One metric's prior basis on the leave-one-out suite prior (the
 * suite without kmeans, cut to its first M apps). Each build takes a
 * fresh copy of the prior vectors, as PriorBases::build takes
 * priorVectors' copy of the profile store.
 */
void
BM_PriorBasisBuild(benchmark::State &state)
{
    const unsigned core_stride = static_cast<unsigned>(state.range(0));
    const unsigned speed_stride =
        static_cast<unsigned>(state.range(1));
    const std::size_t apps = static_cast<std::size_t>(state.range(2));
    const FitSetup s = makeSetup(core_stride, speed_stride);
    const std::vector<linalg::Vector> prior(
        s.prior.begin(),
        s.prior.begin() + static_cast<std::ptrdiff_t>(apps));
    for (auto _ : state) {
        const estimators::PriorBasis basis(prior);
        benchmark::DoNotOptimize(basis.fingerprint());
    }
    state.counters["configs"] = static_cast<double>(s.space.size());
    state.counters["apps"] = static_cast<double>(apps);
}

void
BM_HullWalk(benchmark::State &state)
{
    platform::Machine machine;
    auto space = platform::ConfigSpace::fullFactorial(machine);
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), machine);
    auto gt = workloads::computeGroundTruth(app, space);
    optimizer::PerformanceConstraint c{
        0.5 * gt.performance.max() * 100.0, 100.0};
    for (auto _ : state) {
        auto plan = optimizer::planMinimalEnergy(
            gt.performance, gt.power,
            machine.spec().idleSystemPowerW, c);
        benchmark::DoNotOptimize(plan.predictedEnergy);
    }
}

} // namespace

// n = 128, 256, 512, 1024 configurations. A fit takes a few ms, so
// one timing per repetition would be mostly scheduler noise: each
// repetition of a fit row averages 20 fits (10 for the headroom row,
// whose fits take tens of ms).
BENCHMARK(BM_LeoFit)
    ->Args({4, 2})
    ->Args({2, 2})
    ->Args({1, 2})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

BENCHMARK(BM_LeoWarmRound)
    ->Args({1, 2})
    ->Args({1, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(20);

BENCHMARK(BM_LeoLowRankHeadroom)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// (n, M) = (1024, 24) and (256, 20); a build takes well under a
// millisecond, so each repetition averages 50 of them.
BENCHMARK(BM_PriorBasisBuild)
    ->Args({1, 1, 24})
    ->Args({2, 2, 20})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(50);

BENCHMARK(BM_HullWalk)->Unit(benchmark::kMillisecond);

int
main(int argc, char **argv)
{
    // Peel off the obs flags before google-benchmark sees them.
    std::string trace_path;
    std::string metrics_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a(argv[i]);
        if (a.rfind("--trace=", 0) == 0)
            trace_path = a.substr(8);
        else if (a == "--trace" && i + 1 < argc)
            trace_path = argv[++i];
        else if (a.rfind("--metrics=", 0) == 0)
            metrics_path = a.substr(10);
        else if (a == "--metrics" && i + 1 < argc)
            metrics_path = argv[++i];
        else
            args.push_back(argv[i]);
    }
    if (!trace_path.empty())
        obs::Tracer::global().enable(1u << 16);

    // Always emit machine-readable results: default the JSON output
    // to BENCH_leo.json in the working directory unless the caller
    // passed --benchmark_out themselves.
    bool has_out = false;
    for (const char *a : args)
        has_out |= std::string(a).rfind("--benchmark_out", 0) == 0;
    std::string out = "--benchmark_out=BENCH_leo.json";
    std::string fmt = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out.data());
        args.push_back(fmt.data());
    }
    int ac = static_cast<int>(args.size());
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();

    if (!trace_path.empty()) {
        obs::Tracer &tracer = obs::Tracer::global();
        tracer.disable();
        if (!tracer.writeChromeTrace(trace_path)) {
            std::fprintf(stderr, "failed to write trace to %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::fprintf(stderr,
                     "trace: %zu spans (%llu dropped) -> %s\n",
                     tracer.recorded(),
                     static_cast<unsigned long long>(tracer.dropped()),
                     trace_path.c_str());
    }
    if (!metrics_path.empty()) {
        std::FILE *f = std::fopen(metrics_path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "failed to write metrics to %s\n",
                         metrics_path.c_str());
            return 1;
        }
        const std::string json = obs::snapshotJson();
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
    }
    return 0;
}

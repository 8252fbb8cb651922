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
 *  - BM_LeoFit: one fit from the raw prior vectors (basis build
 *    included).
 *  - BM_LeoRefit: what a re-decision runs — a fit on a prebuilt
 *    shared PriorBasis through a persistent workspace.
 *
 * Every fit runs cold from the Offline init. BM_PriorBasisBuild
 * times the stage a controller's first decision runs before its fit:
 * one metric's PriorBasis (normalize, orthonormalize and factor the
 * prior shapes). BM_EmKernel times each dense kernel of one EM
 * iteration at the fit's shapes, through the dispatched entry and
 * through the portable build.
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

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/obs.hh"

#include "estimators/leo.hh"
#include "estimators/prior_basis.hh"
#include "linalg/cholesky.hh"
#include "linalg/kernels.hh"
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
 * One re-decision's fit: the 20 observations fitted on a shared
 * PriorBasis built before the timed loop, through a workspace that
 * has served a fit before — what the runtime controller, the
 * service's batches and each VarianceGuidedSampler round run, since
 * their bases are built with the prior rather than per fit.
 */
void
BM_LeoRefit(benchmark::State &state)
{
    const unsigned core_stride = static_cast<unsigned>(state.range(0));
    const unsigned speed_stride =
        static_cast<unsigned>(state.range(1));
    const FitSetup s = makeSetup(core_stride, speed_stride);
    const auto basis =
        std::make_shared<const estimators::PriorBasis>(s.prior);
    estimators::LeoEstimator est;
    linalg::Workspace ws;
    (void)est.fitMetric(basis, s.obs_idx, s.obs_vals, &ws);
    runTimedFits(state, s.space.size(), [&]() {
        return est.fitMetric(basis, s.obs_idx, s.obs_vals, &ws);
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
        benchmark::DoNotOptimize(basis.rows().data());
    }
    state.counters["configs"] = static_cast<double>(s.space.size());
    state.counters["apps"] = static_cast<double>(apps);
}

/** The dense kernels one EM iteration runs (BM_EmKernel rows). */
enum class EmKernel
{
    MultiplyPc, ///< P C: s x q by q x q
    MultiplyW,  ///< W = Z (C + beta I)^-1: m x q by q x q
    MultiplyA,  ///< A = (P C) P': s x q by q x s
    GramY,      ///< Y' Y for the target's posterior core: Y is s x q
    GramR,      ///< R' R for the M-step: R is m x q
    FactorC,    ///< factor C + beta I: q x q
    FactorA,    ///< factor A: s x s
    InverseC,   ///< (C + beta I)^-1 from its factor: q x q
    SolveY,     ///< Y = L_A^-1 B: s x s factor, s x q right-hand side
};

/**
 * One EM kernel at the fit's shapes: order q (the row argument),
 * s = 20 probes and m = q - 20 prior applications, so q = 40 pairs
 * with m = 20 and q = 44 with m = 24. `portable` times the portable
 * build through linalg::detail; otherwise the public entry the fit
 * calls, which runs the build the host's CPU picks. Inputs are
 * random SPD cores and dense factors; SolveY restores its right-hand
 * side each iteration, so its rows include an s x q copy.
 */
void
BM_EmKernel(benchmark::State &state, EmKernel kernel, bool portable)
{
    using linalg::Matrix;
    using linalg::detail::Isa;
    namespace detail = linalg::detail;
    const std::size_t q = static_cast<std::size_t>(state.range(0));
    const std::size_t s = 20;
    const std::size_t m = q - s;
    stats::Rng rng(23);
    auto random = [&](std::size_t rows, std::size_t cols) {
        Matrix x(rows, cols);
        for (std::size_t i = 0; i < rows * cols; ++i)
            x.data()[i] = rng.gaussian();
        return x;
    };
    auto spd = [&](std::size_t n) {
        Matrix g;
        Matrix::gramInto(g, random(n + 4, n));
        g.addToDiagonal(static_cast<double>(n));
        return g;
    };
    const Matrix p = random(s, q);
    const Matrix c = spd(q);
    const Matrix a = spd(s);
    const Matrix z = random(m, q);
    const Matrix y = random(s, q);
    Matrix pc, pt, out, scratch;
    Matrix::multiplyInto(pc, p, c);
    p.transposeInto(pt);
    linalg::Cholesky chol_c, chol_a;
    chol_c.factorize(c, 0.5);
    chol_a.factorize(a);
    const Matrix &lc = chol_c.factor();
    const Matrix &la = chol_a.factor();
    Matrix inv_c;
    linalg::Workspace ws;
    chol_c.inverseInto(inv_c, ws);
    linalg::Cholesky timed;

    auto time = [&](auto &&dispatched, auto &&port) {
        for (auto _ : state) {
            if (portable)
                port();
            else
                dispatched();
            benchmark::DoNotOptimize(out.data());
            benchmark::DoNotOptimize(timed.factor().data());
            benchmark::ClobberMemory();
        }
    };
    switch (kernel) {
    case EmKernel::MultiplyPc:
        time([&] { Matrix::multiplyInto(out, p, c); },
             [&] { detail::multiplyInto(Isa::Portable, out, p, c); });
        break;
    case EmKernel::MultiplyW:
        time([&] { Matrix::multiplyInto(out, z, inv_c); },
             [&] { detail::multiplyInto(Isa::Portable, out, z, inv_c); });
        break;
    case EmKernel::MultiplyA:
        time([&] { Matrix::multiplyInto(out, pc, pt); },
             [&] { detail::multiplyInto(Isa::Portable, out, pc, pt); });
        break;
    case EmKernel::GramY:
        time([&] { Matrix::gramInto(out, y); },
             [&] { detail::gramInto(Isa::Portable, out, y); });
        break;
    case EmKernel::GramR:
        time([&] { Matrix::gramInto(out, z); },
             [&] { detail::gramInto(Isa::Portable, out, z); });
        break;
    case EmKernel::FactorC:
        timed.reserve(q);
        time([&] { timed.factorize(c, 0.5); },
             [&] {
                 detail::choleskyInto(Isa::Portable, out, c, 0.5, 0.0);
             });
        break;
    case EmKernel::FactorA:
        timed.reserve(s);
        time([&] { timed.factorize(a); },
             [&] { detail::choleskyInto(Isa::Portable, out, a, 0.0, 0.0); });
        break;
    case EmKernel::InverseC:
        time([&] { chol_c.inverseInto(out, ws); },
             [&] {
                 detail::choleskyInverseInto(Isa::Portable, out, scratch,
                                             lc);
             });
        break;
    case EmKernel::SolveY:
        out = y;
        time(
            [&] {
                std::copy(y.data(), y.data() + s * q, out.data());
                chol_a.solveLowerInPlace(out);
            },
            [&] {
                std::copy(y.data(), y.data() + s * q, out.data());
                detail::forwardSolveInPlace(Isa::Portable, la, out);
            });
        break;
    }
    state.counters["q"] = static_cast<double>(q);
    state.counters["lanes"] = static_cast<double>(
        detail::simdLanes(portable ? Isa::Portable : detail::activeIsa()));
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

BENCHMARK(BM_LeoRefit)
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
    // BM_EmKernel/<kernel>/<q>: the public (dispatched) entry, and
    // BM_EmKernel/<kernel>_portable/<q>: the portable build.
    const std::pair<const char *, EmKernel> em_kernels[] = {
        {"multiply_pc", EmKernel::MultiplyPc},
        {"multiply_w", EmKernel::MultiplyW},
        {"multiply_a", EmKernel::MultiplyA},
        {"gram_y", EmKernel::GramY},
        {"gram_r", EmKernel::GramR},
        {"factor_c", EmKernel::FactorC},
        {"factor_a", EmKernel::FactorA},
        {"inverse_c", EmKernel::InverseC},
        {"solve_y", EmKernel::SolveY},
    };
    for (const auto &[name, kernel] : em_kernels) {
        for (const bool portable : {false, true}) {
            std::string row = "BM_EmKernel/";
            row += name;
            if (portable)
                row += "_portable";
            benchmark::RegisterBenchmark(row.c_str(), BM_EmKernel, kernel,
                                         portable)
                ->Arg(40)
                ->Arg(44)
                ->Unit(benchmark::kMicrosecond);
        }
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

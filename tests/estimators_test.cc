/**
 * @file
 * Unit tests for the estimators: LEO (hierarchical Bayes + EM),
 * Online (polynomial regression) and Offline (prior mean).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "estimators/normalization.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "linalg/error.hh"
#include "linalg/workspace.hh"
#include "obs/obs.hh"
#include "parallel/parallel_for.hh"
#include "platform/config_space.hh"
#include "stats/metrics.hh"
#include "support/dense.hh"
#include "support/fit_compare.hh"
#include "support/mvn.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

/**
 * Allocation instrumentation for the hot-loop tests: every operator
 * new in this binary bumps a counter (operator new[] funnels through
 * operator new by default), which LeoFit::loopAllocations reads via
 * the estimators::setAllocationCounter hook.
 */
static std::atomic<std::size_t> g_heap_allocs{0};

// noinline keeps the optimizer from pairing the malloc inside the
// replacement operator new with the free inside operator delete
// across inlined call chains, which trips a spurious GCC
// -Wmismatched-new-delete at -O2.
[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace leo;
using linalg::Matrix;
using linalg::Vector;
using platform::ConfigSpace;
using platform::Machine;

namespace
{

/** Small test fixture: the 32-point core-only space with the suite. */
struct CoreOnlyWorld
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{2024};

    std::vector<Vector>
    priorPerf(const std::string &exclude)
    {
        std::vector<Vector> out;
        for (const auto &p : workloads::standardSuite()) {
            if (p.name == exclude)
                continue;
            workloads::ApplicationModel m(p, machine);
            out.push_back(
                workloads::computeGroundTruth(m, space).performance);
        }
        return out;
    }

    Vector
    truthPerf(const std::string &name)
    {
        workloads::ApplicationModel m(
            workloads::profileByName(name), machine);
        return workloads::computeGroundTruth(m, space).performance;
    }
};

} // namespace

// -------------------------------------------------------- Normalization

TEST(Normalization, ShapesHaveUnitMean)
{
    std::vector<Vector> prior{Vector{2.0, 4.0}, Vector{10.0, 30.0}};
    auto shapes = estimators::normalizeShapes(prior);
    ASSERT_EQ(shapes.size(), 2u);
    EXPECT_NEAR(shapes[0].mean(), 1.0, 1e-12);
    EXPECT_NEAR(shapes[1].mean(), 1.0, 1e-12);
    EXPECT_DOUBLE_EQ(shapes[1][1], 1.5);
}

TEST(Normalization, RejectsDegenerate)
{
    EXPECT_THROW(estimators::normalizeShapes({Vector{}}), FatalError);
    EXPECT_THROW(estimators::normalizeShapes({Vector{-1.0, 1.0}}),
                 FatalError);
    EXPECT_THROW(estimators::observedScale(Vector{}), FatalError);
}

// -------------------------------------------------------------- Offline

TEST(Offline, MeanShapeIsAverage)
{
    std::vector<Vector> prior{Vector{1.0, 3.0}, Vector{3.0, 1.0}};
    Vector shape = estimators::OfflineEstimator::meanShape(prior);
    // Both normalize to mean 1: (0.5,1.5) and (1.5,0.5) -> (1,1).
    EXPECT_NEAR(shape[0], 1.0, 1e-12);
    EXPECT_NEAR(shape[1], 1.0, 1e-12);
}

TEST(Offline, AnchorsToObservedScale)
{
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::OfflineEstimator off;
    // Observe two configs of a hypothetical app at scale ~100.
    auto est = off.estimateMetric(w.space, prior, {0, 16},
                                  Vector{80.0, 120.0});
    EXPECT_TRUE(est.reliable);
    // The estimate's scale is anchored near the observations.
    EXPECT_NEAR(est.values.gather({0, 16}).mean(), 100.0, 25.0);
}

TEST(Offline, IgnoresObservedShape)
{
    // Offline never adapts its shape: two different observation
    // SHAPES with the same mean produce the same estimate.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::OfflineEstimator off;
    auto a = off.estimateMetric(w.space, prior, {0, 31},
                                Vector{50.0, 150.0});
    auto b = off.estimateMetric(w.space, prior, {0, 31},
                                Vector{150.0, 50.0});
    for (std::size_t c = 0; c < w.space.size(); ++c)
        EXPECT_NEAR(a.values[c], b.values[c], 1e-9);
}

TEST(Offline, RequiresPrior)
{
    CoreOnlyWorld w;
    estimators::OfflineEstimator off;
    EXPECT_THROW(off.estimateMetric(w.space, {}, {}, Vector{}),
                 FatalError);
}

// --------------------------------------------------------------- Online

TEST(Online, RankDeficientBelowFeatureCount)
{
    // Full space has 4 knobs, degree 2 -> 15 features; below 15
    // samples the estimate must be flagged unreliable (Fig. 12).
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), m);
    telemetry::HeartbeatMonitor mon(0.0);
    telemetry::WattsUpMeter met(0.0, 0.0);
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    stats::Rng rng(3);
    estimators::OnlineEstimator online;

    auto obs14 = prof.sample(app, space, pol, 14, rng);
    auto est14 = online.estimateMetric(space, {}, obs14.indices,
                                       obs14.performance);
    EXPECT_FALSE(est14.reliable);

    auto obs20 = prof.sample(app, space, pol, 20, rng);
    auto est20 = online.estimateMetric(space, {}, obs20.indices,
                                       obs20.performance);
    EXPECT_TRUE(est20.reliable);
}

TEST(Online, FitsSmoothSurfacesWell)
{
    // A quadratic-ish smooth application: degree-2 online regression
    // should reach high accuracy with ample samples.
    Machine m;
    auto space = ConfigSpace::fullFactorial(m);
    workloads::ApplicationProfile p =
        workloads::profileByName("blackscholes");
    p.textureAmplitude = 0.0;
    workloads::ApplicationModel app(p, m);
    auto gt = workloads::computeGroundTruth(app, space);

    telemetry::HeartbeatMonitor mon(0.0);
    telemetry::WattsUpMeter met(0.0, 0.0);
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    stats::Rng rng(5);
    auto obs = prof.sample(app, space, pol, 200, rng);

    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(space, {}, obs.indices,
                                     obs.performance);
    EXPECT_TRUE(est.reliable);
    EXPECT_GT(stats::accuracy(est.values, gt.performance), 0.9);
}

TEST(Online, NoObservationsUnreliable)
{
    CoreOnlyWorld w;
    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(w.space, {}, {}, Vector{});
    EXPECT_FALSE(est.reliable);
}

TEST(Online, PredictionsNonNegative)
{
    CoreOnlyWorld w;
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 12, w.rng);
    estimators::OnlineEstimator online;
    auto est = online.estimateMetric(w.space, {}, obs.indices,
                                     obs.performance);
    EXPECT_GE(*std::min_element(est.values.begin(), est.values.end()),
              0.0);
}

// ------------------------------------------------------------------ LEO

TEST(Leo, RecoversModelGeneratedData)
{
    // Property test: generate applications *from the hierarchical
    // model itself* (Equation 2) and verify EM recovers the target
    // vector to high accuracy from partial observations.
    const std::size_t n = 24;
    const std::size_t m_apps = 30;
    stats::Rng rng(99);

    // A smooth random mean and a low-rank-plus-diagonal covariance.
    Vector mu(n);
    for (std::size_t j = 0; j < n; ++j)
        mu[j] = 5.0 + 2.0 * std::sin(0.3 * static_cast<double>(j));
    Matrix cov(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            cov(i, j) = 1.5 * std::exp(
                -0.05 * static_cast<double>((i - j) * (i - j)));
    cov.addToDiagonal(0.05);

    support::MultivariateNormal latent(mu, cov);
    const double noise_sd = 0.05;

    std::vector<Vector> prior;
    for (std::size_t a = 0; a + 1 < m_apps; ++a) {
        Vector z = latent.sample(rng);
        for (std::size_t j = 0; j < n; ++j)
            z[j] = std::max(z[j] + rng.gaussian(0, noise_sd), 0.1);
        prior.push_back(z);
    }
    Vector target = latent.sample(rng);
    for (std::size_t j = 0; j < n; ++j)
        target[j] = std::max(target[j], 0.1);

    std::vector<std::size_t> obs_idx{1, 5, 9, 13, 17, 21};
    Vector obs_vals(obs_idx.size());
    for (std::size_t k = 0; k < obs_idx.size(); ++k)
        obs_vals[k] = target[obs_idx[k]] + rng.gaussian(0, noise_sd);

    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, obs_idx, obs_vals);
    EXPECT_GT(stats::accuracy(fit.prediction, target), 0.85);
    EXPECT_TRUE(fit.prediction.allFinite());
    EXPECT_GT(fit.sigma2, 0.0);
}

TEST(Leo, BeatsOfflineAndOnlineOnKmeans)
{
    // The motivating example: kmeans' peak at 8 cores with 6
    // uniformly spaced observations (Section 2 / Figure 1).
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    auto truth = w.truthPerf("kmeans");

    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::UniformGridSampler grid;
    auto obs = prof.sample(app, w.space, grid, 6, w.rng);

    estimators::LeoEstimator leo;
    estimators::OnlineEstimator online(2);
    estimators::OfflineEstimator offline;

    const double acc_leo = stats::accuracy(
        leo.estimateMetric(w.space, prior, obs.indices,
                           obs.performance)
            .values,
        truth);
    const double acc_on = stats::accuracy(
        online
            .estimateMetric(w.space, prior, obs.indices,
                            obs.performance)
            .values,
        truth);
    const double acc_off = stats::accuracy(
        offline
            .estimateMetric(w.space, prior, obs.indices,
                            obs.performance)
            .values,
        truth);

    EXPECT_GT(acc_leo, 0.85);
    EXPECT_GT(acc_leo, acc_on);
    EXPECT_GT(acc_leo, acc_off);

    // LEO finds the peak near 8 cores.
    auto est = leo.estimateMetric(w.space, prior, obs.indices,
                                  obs.performance);
    EXPECT_NEAR(static_cast<double>(est.values.argmax() + 1), 8.0,
                2.0);
}

TEST(Leo, ConvergesInFewIterations)
{
    // Section 5.5: "the algorithm converges quickly ... generally
    // requiring 3-4 iterations".
    CoreOnlyWorld w;
    auto prior = w.priorPerf("x264");
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 8, w.rng);

    estimators::LeoOptions opt;
    opt.maxIterations = 10;
    estimators::LeoEstimator leo(opt);
    auto fit = leo.fitMetric(prior, obs.indices, obs.performance);
    EXPECT_LE(fit.iterations, 6u);
}

TEST(Leo, InterpolatesObservationsClosely)
{
    CoreOnlyWorld w;
    auto prior = w.priorPerf("swish");
    workloads::ApplicationModel app(
        workloads::profileByName("swish"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 10, w.rng);

    estimators::LeoEstimator leo;
    auto est = leo.estimateMetric(w.space, prior, obs.indices,
                                  obs.performance);
    for (std::size_t k = 0; k < obs.indices.size(); ++k) {
        EXPECT_NEAR(est.values[obs.indices[k]], obs.performance[k],
                    0.1 * obs.performance[k]);
    }
}

TEST(Leo, ZeroObservationsEqualsOfflineShape)
{
    // Figure 12: "with 0 samples, LEO behaves as the offline method".
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, {}, Vector{});
    Vector offline_shape =
        estimators::OfflineEstimator::meanShape(prior);
    // Same shape up to the gentle EM smoothing: high (Pearson)
    // correlation.
    const double mean_fit = fit.prediction.mean();
    const double mean_off = offline_shape.mean();
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t j = 0; j < offline_shape.size(); ++j) {
        const double dx = fit.prediction[j] - mean_fit;
        const double dy = offline_shape[j] - mean_off;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    EXPECT_GT(sxy / std::sqrt(sxx * syy), 0.99);
}

TEST(Leo, LearnedSigmaCapturesConfigCorrelation)
{
    // Figure 4: Sigma captures correlation between configurations.
    // Adjacent core counts behave similarly across applications, so
    // their correlation must exceed that of distant core counts.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 6, w.rng);

    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, obs.indices, obs.performance);
    const Matrix s = fit.covariance();
    auto corr = [&](std::size_t i, std::size_t j) {
        return s(i, j) / std::sqrt(s(i, i) * s(j, j));
    };
    EXPECT_GT(corr(10, 11), corr(2, 30));
    EXPECT_TRUE(support::isSymmetric(s, 1e-8));
}

TEST(Leo, CovarianceMaterializesTheFactors)
{
    // covariance() is Sigma = alphaDiag I + Q' coeff Q as a dense
    // matrix: exactly symmetric, with each diagonal entry the
    // factored variance alphaDiag + q_j' C q_j.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 6, w.rng);
    const auto fit = estimators::LeoEstimator{}.fitMetric(
        prior, obs.indices, obs.performance);

    const Matrix s = fit.covariance();
    const std::size_t n = w.space.size();
    const Matrix basis = fit.basis();
    const std::size_t q = basis.rows();
    ASSERT_EQ(q, fit.rank());
    ASSERT_EQ(s.rows(), n);
    ASSERT_EQ(s.cols(), n);
    EXPECT_TRUE(support::isSymmetric(s, 0.0));
    for (std::size_t j = 0; j < n; ++j) {
        double quad = 0.0;
        for (std::size_t a = 0; a < q; ++a)
            for (std::size_t b = 0; b < q; ++b)
                quad += basis(a, j) * fit.coeff(a, b) * basis(b, j);
        const double want = fit.alphaDiag + quad;
        EXPECT_NEAR(s(j, j), want, 1e-12 * std::abs(want)) << j;
    }

    // A fit without factors has no covariance to materialize.
    EXPECT_THROW((void)estimators::LeoFit{}.covariance(), FatalError);
}

TEST(Leo, MoreSamplesNeverMuchWorse)
{
    // Sensitivity property (Fig. 12): accuracy is non-decreasing in
    // sample budget, modulo small noise.
    CoreOnlyWorld w;
    auto prior = w.priorPerf("kmeans");
    auto truth = w.truthPerf("kmeans");
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    estimators::LeoEstimator leo;

    double prev = 0.0;
    for (std::size_t budget : {4u, 12u, 24u}) {
        double acc = 0.0;
        for (int t = 0; t < 3; ++t) {
            auto obs = prof.sample(app, w.space, pol, budget, w.rng);
            acc += stats::accuracy(
                leo.estimateMetric(w.space, prior, obs.indices,
                                   obs.performance)
                    .values,
                truth);
        }
        acc /= 3.0;
        EXPECT_GT(acc, prev - 0.08)
            << "accuracy collapsed at budget " << budget;
        prev = acc;
    }
}

TEST(Leo, NoPriorFallsBackUnreliable)
{
    CoreOnlyWorld w;
    estimators::LeoEstimator leo;
    auto est =
        leo.estimateMetric(w.space, {}, {0}, Vector{5.0});
    EXPECT_FALSE(est.reliable);
    EXPECT_DOUBLE_EQ(est.values[10], 5.0);
}

TEST(Leo, EmptyPriorDegradesToSanitizedObservedMean)
{
    // An empty prior takes the same degradation path as any other
    // unbuildable prior: the observations are sanitized first (the
    // NaN is rejected and counted), the flat guess is the mean of the
    // survivors, and no ridge retry is counted because none runs.
    CoreOnlyWorld w;
    estimators::LeoEstimator leo;
    const obs::Counter ridge =
        obs::Registry::global().counter(obs::names::kEmRidgeRetried);
    const std::uint64_t ridge_before = ridge.value();
    const auto est = leo.estimateMetric(
        w.space, {}, {0, 7, 12}, Vector{5.0, 10.0, std::nan("")});
    EXPECT_FALSE(est.reliable);
    EXPECT_EQ(est.samplesRejected, 1u);
    ASSERT_EQ(est.values.size(), w.space.size());
    for (std::size_t j = 0; j < w.space.size(); ++j)
        EXPECT_EQ(est.values[j], 7.5) << j;
    EXPECT_EQ(ridge.value(), ridge_before);
}

TEST(Leo, RejectsBadInputs)
{
    estimators::LeoEstimator leo;
    EXPECT_THROW(leo.fitMetric(std::vector<Vector>{}, {}, Vector{}),
                 FatalError);
    std::vector<Vector> ragged{Vector(4, 1.0), Vector(5, 1.0)};
    EXPECT_THROW(leo.fitMetric(ragged, {}, Vector{}), FatalError);
    std::vector<Vector> ok{Vector(4, 1.0)};
    EXPECT_THROW(leo.fitMetric(ok, {9}, Vector{1.0}), FatalError);
    EXPECT_THROW(leo.fitMetric(ok, {0, 1}, Vector{1.0}), FatalError);
}

TEST(Leo, OptionsValidated)
{
    estimators::LeoOptions bad;
    bad.maxIterations = 0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
    bad = estimators::LeoOptions{};
    bad.initSigma2 = 0.0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
    bad = estimators::LeoOptions{};
    bad.hyperPi = -1.0;
    EXPECT_THROW(estimators::LeoEstimator{bad}, FatalError);
}

// ---------------------------------------------- Estimator front door

TEST(Estimator, EstimateRunsBothMetrics)
{
    CoreOnlyWorld w;
    stats::Rng rng(31);
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), w.machine, w.space, w.monitor,
        w.meter, rng);
    auto prior = store.without("kmeans");

    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, 8, rng);

    estimators::LeoEstimator leo;
    estimators::EstimationInputs inputs{w.space, prior, obs};
    auto est = leo.estimate(inputs);
    EXPECT_EQ(est.performance.values.size(), w.space.size());
    EXPECT_EQ(est.power.values.size(), w.space.size());
    EXPECT_TRUE(est.performance.reliable);
    EXPECT_TRUE(est.power.reliable);
    // Power estimates stay in a physically sane band.
    EXPECT_GT(*std::min_element(est.power.values.begin(),
                                est.power.values.end()),
              50.0);
    EXPECT_LT(est.power.values.max(), 500.0);
}

// ------------------------------------------------ Parallel determinism

namespace
{

/** Exact (bitwise) vector equality, with a useful failure message. */
void
expectExactlyEqual(const Vector &a, const Vector &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(a[i], b[i]) << what << " differs at index " << i;
}

/** A fixed-seed fit problem shared by the determinism and hot-loop
 *  tests. */
struct FitProblem
{
    std::vector<Vector> prior;
    std::vector<std::size_t> idx;
    Vector vals;
};

FitProblem
makeFitProblem(std::size_t n_obs, const std::string &app_name = "kmeans")
{
    CoreOnlyWorld w; // fixed fixture seed (2024)
    FitProblem p;
    p.prior = w.priorPerf(app_name);
    workloads::ApplicationModel app(
        workloads::profileByName(app_name), w.machine);
    telemetry::Profiler prof(w.monitor, w.meter);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, w.space, pol, n_obs, w.rng);
    p.idx = obs.indices;
    p.vals = obs.performance;
    return p;
}

/** Every problem's estimate and full fit, one parallelFor item per
 *  problem, as the service and the accuracy sweep fan out theirs. */
struct FanOut
{
    std::vector<estimators::MetricEstimate> estimates;
    std::vector<estimators::LeoFit> fits;
};

FanOut
fanOutFits(const estimators::LeoEstimator &est,
           const std::vector<FitProblem> &problems,
           parallel::ThreadPool &pool)
{
    const ConfigSpace space = ConfigSpace::coreOnly(Machine{});
    FanOut out;
    out.estimates.resize(problems.size());
    out.fits.resize(problems.size());
    parallel::parallelFor(pool, problems.size(), [&](std::size_t i) {
        const FitProblem &p = problems[i];
        out.estimates[i] = est.estimateMetric(space, p.prior, p.idx,
                                              p.vals, nullptr,
                                              &out.fits[i]);
    });
    return out;
}

/** Four distinct fit problems, one per target application. */
std::vector<FitProblem>
fourProblems()
{
    std::vector<FitProblem> out;
    for (const char *name : {"kmeans", "swish", "x264", "bodytrack"})
        out.push_back(makeFitProblem(12, name));
    return out;
}

} // namespace

TEST(LeoParallel, FitBitwiseIdenticalAcrossThreadCounts)
{
    // The acceptance bar for the parallel subsystem: a fit is serial
    // and callers fan whole fits out, so a fan-out on 1, 2 or 8
    // threads runs *exactly* the computations of each fit run alone —
    // same estimates, same fitted parameters, same iteration count,
    // same per-iteration log-likelihood trace.
    estimators::LeoOptions opt;
    opt.maxIterations = 8;
    const estimators::LeoEstimator leo(opt);
    const ConfigSpace space = ConfigSpace::coreOnly(Machine{});
    const std::vector<FitProblem> problems = fourProblems();
    for (std::size_t threads : {1u, 2u, 8u}) {
        parallel::ThreadPool pool(threads - 1);
        const FanOut out = fanOutFits(leo, problems, pool);
        for (std::size_t i = 0; i < problems.size(); ++i) {
            const FitProblem &p = problems[i];
            const std::string what = std::to_string(threads) +
                                     " threads, fit " +
                                     std::to_string(i);
            const auto solo =
                leo.estimateMetric(space, p.prior, p.idx, p.vals);
            expectExactlyEqual(out.estimates[i].values, solo.values,
                               what);
            EXPECT_EQ(out.estimates[i].iterations, solo.iterations)
                << what;
            support::expectFitsBitwise(out.fits[i],
                                   leo.fitMetric(p.prior, p.idx, p.vals),
                                   what);
        }
    }
}

TEST(LeoParallel, SharedGlobalPoolMatchesSerial)
{
    // The process-wide pool runs the identical computations.
    const estimators::LeoEstimator leo;
    const std::vector<FitProblem> problems = fourProblems();
    parallel::ThreadPool inline_pool(0);
    const FanOut serial = fanOutFits(leo, problems, inline_pool);
    const FanOut pooled =
        fanOutFits(leo, problems, parallel::ThreadPool::global());
    for (std::size_t i = 0; i < problems.size(); ++i)
        support::expectFitsBitwise(pooled.fits[i], serial.fits[i],
                               "global pool, fit " + std::to_string(i));
}

// ------------------------------------------- Hot-loop memory discipline

namespace
{

/** Reads the operator-new counter defined at the top of this file. */
std::size_t
heapAllocCount()
{
    return g_heap_allocs.load(std::memory_order_relaxed);
}

} // namespace

/**
 * The raw-vector overload that perfbench/ calls keeps a prior-fit and
 * a CovarianceRep parameter and ignores both: handed an earlier fit it
 * returns, bit for bit, what it returns handed null, which is the
 * plain workspace overload's fit.
 */
TEST(Leo, PerfbenchOverloadIgnoresItsFitArgument)
{
    const FitProblem first = makeFitProblem(8);
    const FitProblem p = makeFitProblem(12);
    const estimators::LeoEstimator est;
    const ConfigSpace space = ConfigSpace::coreOnly(Machine{});
    const estimators::LeoFit earlier =
        est.fitMetric(first.prior, first.idx, first.vals);

    linalg::Workspace ws;
    estimators::LeoFit with_null, with_fit, plain;
    const auto a = est.estimateMetric(space, p.prior, p.idx, p.vals, &ws,
                                      nullptr, &with_null,
                                      estimators::CovarianceRep::Auto);
    const auto b = est.estimateMetric(space, p.prior, p.idx, p.vals, &ws,
                                      &earlier, &with_fit,
                                      estimators::CovarianceRep::Auto);
    const auto c =
        est.estimateMetric(space, p.prior, p.idx, p.vals, nullptr, &plain);
    expectExactlyEqual(b.values, a.values, "with a fit");
    expectExactlyEqual(c.values, a.values, "plain");
    support::expectFitsBitwise(with_fit, with_null, "with a fit");
    support::expectFitsBitwise(plain, with_null, "plain");
}

TEST(LeoHotLoop, SerialIterationLoopIsAllocationFree)
{
    // The tentpole guarantee: once the workspace is bound, the EM
    // iteration loop performs zero heap allocations — on a fit with a
    // fresh arena (buffers are acquired in the prologue), on a second
    // fit reusing it, and with or without observations. The arena
    // never changes the bits: each fit equals one through a fit-local
    // arena.
    const FitProblem p = makeFitProblem(12);
    const estimators::LeoEstimator est;

    estimators::setAllocationCounter(&heapAllocCount);
    linalg::Workspace ws;
    const estimators::LeoFit first =
        est.fitMetric(p.prior, p.idx, p.vals, &ws);
    const estimators::LeoFit again =
        est.fitMetric(p.prior, p.idx, p.vals, &ws);
    const estimators::LeoFit no_obs =
        est.fitMetric(p.prior, {}, Vector(0), &ws);
    estimators::setAllocationCounter(nullptr);

    EXPECT_EQ(first.loopAllocations, 0u);
    EXPECT_EQ(again.loopAllocations, 0u);
    EXPECT_EQ(no_obs.loopAllocations, 0u);
    const estimators::LeoFit fresh = est.fitMetric(p.prior, p.idx, p.vals);
    support::expectFitsBitwise(first, fresh, "first");
    support::expectFitsBitwise(again, fresh, "again");
    support::expectFitsBitwise(
        no_obs, est.fitMetric(p.prior, {}, Vector(0)), "no_obs");

    // The hook actually measures: a direct call to the replaced
    // operator new (which, unlike a new-expression, may not be
    // elided) moves it.
    const std::size_t before = heapAllocCount();
    ::operator delete(::operator new(64));
    EXPECT_GT(heapAllocCount(), before);
}

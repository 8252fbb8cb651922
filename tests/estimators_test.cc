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

#include "estimators/fit_io.hh"
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

/** Exact (bitwise) matrix equality. */
void
expectExactlyEqual(const Matrix &a, const Matrix &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << what << "(" << r << "," << c << ")";
}

/** Exact equality on every field of two fits. */
void
expectFitsExactlyEqual(const estimators::LeoFit &a,
                       const estimators::LeoFit &b,
                       const std::string &what)
{
    expectExactlyEqual(a.prediction, b.prediction, what + ".prediction");
    EXPECT_EQ(a.sigma2, b.sigma2) << what;
    EXPECT_EQ(a.iterations, b.iterations) << what;
    EXPECT_EQ(a.converged, b.converged) << what;
    ASSERT_EQ(a.logLikelihoodTrace.size(), b.logLikelihoodTrace.size())
        << what;
    for (std::size_t i = 0; i < a.logLikelihoodTrace.size(); ++i)
        EXPECT_EQ(a.logLikelihoodTrace[i], b.logLikelihoodTrace[i])
            << what << ".trace[" << i << "]";
    EXPECT_EQ(a.scale, b.scale) << what;
    // The shared prior is compared by content, never by pointer.
    EXPECT_EQ(a.prior == nullptr, b.prior == nullptr) << what;
    if (a.prior && b.prior) {
        EXPECT_EQ(a.prior->fingerprint(), b.prior->fingerprint()) << what;
    }
    EXPECT_EQ(a.kept.units, b.kept.units) << what;
    expectExactlyEqual(a.kept.w, b.kept.w, what + ".kept.w");
    expectExactlyEqual(a.kept.l, b.kept.l, what + ".kept.l");
    EXPECT_EQ(a.observedUnits, b.observedUnits) << what;
    EXPECT_EQ(a.priorFingerprint, b.priorFingerprint) << what;
    expectExactlyEqual(a.coeff, b.coeff, what + ".coeff");
    EXPECT_EQ(a.alphaDiag, b.alphaDiag) << what;
    expectExactlyEqual(a.varCore, b.varCore, what + ".varCore");
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
            expectFitsExactlyEqual(out.fits[i],
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
        expectFitsExactlyEqual(pooled.fits[i], serial.fits[i],
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
    expectFitsExactlyEqual(with_fit, with_null, "with a fit");
    expectFitsExactlyEqual(plain, with_null, "plain");
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
    expectFitsExactlyEqual(first, fresh, "first");
    expectFitsExactlyEqual(again, fresh, "again");
    expectFitsExactlyEqual(
        no_obs, est.fitMetric(p.prior, {}, Vector(0)), "no_obs");

    // The hook actually measures: a direct call to the replaced
    // operator new (which, unlike a new-expression, may not be
    // elided) moves it.
    const std::size_t before = heapAllocCount();
    ::operator delete(::operator new(64));
    EXPECT_GT(heapAllocCount(), before);
}

// --------------------------------------------------- fit round trip

/**
 * saveFit/loadFit round-trip every field bit for bit, with a dense
 * (full-rank, q = n) and a low-rank (q << n) factored Sigma alike —
 * a loaded fit answers every variance query as the original does.
 * The blob carries no basis rows:
 * loadFit shares the prior basis it is handed and refactors the kept
 * block from it.
 */
TEST(FitIo, RoundTripsDenseAndLowRankBitwise)
{
    const Machine machine;
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    telemetry::Profiler profiler(monitor, meter);
    telemetry::RandomSampler sampler;
    const workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), machine);
    // 24 prior shapes and 8 probes span all 32 core-only
    // configurations; on the 256-configuration space they span 32.
    for (const ConfigSpace &space :
         {ConfigSpace::coreOnly(machine),
          ConfigSpace::reducedFactorial(machine, 2, 2)}) {
        std::vector<Vector> prior;
        for (const auto &p : workloads::standardSuite()) {
            if (p.name == "kmeans")
                continue;
            workloads::ApplicationModel m(p, machine);
            prior.push_back(
                workloads::computeGroundTruth(m, space).performance);
        }
        stats::Rng rng(41);
        auto obs = profiler.sample(app, space, sampler, 8, rng);

        const estimators::LeoEstimator leo;
        const auto fit =
            leo.fitMetric(prior, obs.indices, obs.performance);
        SCOPED_TRACE("n = " + std::to_string(space.size()) +
                     ", q = " + std::to_string(fit.rank()));
        EXPECT_EQ(fit.rank() == space.size(), space.size() == 32);
        // A basis built from the same vectors is the one the fit ran
        // on, by content.
        const auto basis =
            std::make_shared<const estimators::PriorBasis>(prior);
        EXPECT_EQ(fit.priorFingerprint, basis->fingerprint());
        linalg::ByteWriter wtr;
        estimators::saveFit(wtr, fit);
        std::string blob = wtr.take();
        linalg::ByteReader rdr(blob);
        const auto loaded = estimators::loadFit(rdr, basis);
        ASSERT_TRUE(rdr.ok());
        EXPECT_TRUE(rdr.atEnd());
        ASSERT_NO_FATAL_FAILURE(
            expectFitsExactlyEqual(fit, loaded, "loaded"));
        for (std::size_t c = 0; c < space.size(); ++c)
            ASSERT_EQ(loaded.predictiveVarianceAt(c),
                      fit.predictiveVarianceAt(c))
                << "config " << c;

        // A truncated blob fails closed.
        blob.resize(blob.size() / 2);
        linalg::ByteReader cut(blob);
        (void)estimators::loadFit(cut, basis);
        EXPECT_FALSE(cut.ok());
    }
}

/**
 * Blobs in the retired formats are rejected through the
 * unknown-version path: the reader fails and the returned fit is
 * empty. Version 1 carried a dense Sigma and a low-rank flag
 * alongside the factors; version 2 carried the expanded variance
 * vector that fits no longer compute; version 3 carried the basis
 * rows themselves; version 4 carried EM's mean mu and the
 * warm-start flag. The v4 blob below is one the v4 reader accepted,
 * and a current blob stamped 4 fails the same way.
 */
TEST(FitIo, RejectsVersionOneBlob)
{
    linalg::ByteWriter wtr;
    wtr.u32(1);
    wtr.vec(Vector(4, 2.0));         // prediction
    wtr.vec(Vector(4, 0.1));         // predictionVariance
    wtr.vec(Vector(4, 1.0));         // mu
    wtr.mat(Matrix(4, 4, 0.0));      // sigma (dense)
    wtr.f64(0.01);                   // sigma2
    wtr.u64(3);                      // iterations
    wtr.u8(1);                       // converged
    wtr.u64(0);                      // empty log-likelihood trace
    wtr.f64(1.0);                    // scale
    wtr.u8(0);                       // warmStarted
    wtr.u8(1);                       // lowRank
    wtr.mat(Matrix(1, 4, 0.5));      // basisT
    wtr.mat(Matrix(1, 1, 0.2));      // coeff
    wtr.f64(0.03);                   // alphaDiag
    wtr.mat(Matrix(1, 1, 0.1));      // varCore

    linalg::ByteWriter v2;
    v2.u32(2);
    v2.vec(Vector(4, 2.0));         // prediction
    v2.vec(Vector(4, 0.1));         // predictionVariance
    v2.vec(Vector(4, 1.0));         // mu
    v2.f64(0.01);                   // sigma2
    v2.u64(3);                      // iterations
    v2.u8(1);                       // converged
    v2.u64(0);                      // empty log-likelihood trace
    v2.f64(1.0);                    // scale
    v2.u8(0);                       // warmStarted
    v2.mat(Matrix(1, 4, 0.5));      // basisT
    v2.mat(Matrix(1, 1, 0.2));      // coeff
    v2.f64(0.03);                   // alphaDiag
    v2.mat(Matrix(1, 1, 0.1));      // varCore

    linalg::ByteWriter v3;
    v3.u32(3);
    v3.vec(Vector(4, 2.0));         // prediction
    v3.vec(Vector(4, 1.0));         // mu
    v3.f64(0.01);                   // sigma2
    v3.u64(3);                      // iterations
    v3.u8(1);                       // converged
    v3.u64(0);                      // empty log-likelihood trace
    v3.f64(1.0);                    // scale
    v3.u8(0);                       // warmStarted
    v3.mat(Matrix(1, 4, 0.5));      // basisT
    v3.mat(Matrix(1, 1, 0.2));      // coeff
    v3.f64(0.03);                   // alphaDiag
    v3.mat(Matrix(1, 1, 0.1));      // varCore

    linalg::ByteWriter v4;
    v4.u32(4);
    v4.vec(Vector(4, 2.0));         // prediction
    v4.vec(Vector(4, 1.0));         // mu
    v4.f64(0.01);                   // sigma2
    v4.u64(3);                      // iterations
    v4.u8(1);                       // converged
    v4.u64(0);                      // empty log-likelihood trace
    v4.f64(1.0);                    // scale
    v4.u8(0);                       // warmStarted
    v4.u64(0);                      // q: no factors
    v4.u64(0);                      // prior fingerprint
    v4.indexVec({});                // observed units
    v4.mat(Matrix());               // coeff
    v4.f64(0.0);                    // alphaDiag
    v4.mat(Matrix());               // varCore

    estimators::LeoFit bare;
    bare.prediction = Vector(4, 2.0);
    bare.sigma2 = 0.01;
    linalg::ByteWriter current;
    estimators::saveFit(current, bare);
    std::string stamped = current.take();
    ASSERT_EQ(static_cast<unsigned char>(stamped[0]), 5u);
    stamped[0] = 4;

    for (const std::string &blob :
         {wtr.take(), v2.take(), v3.take(), v4.take(), stamped}) {
        linalg::ByteReader rdr(blob);
        const estimators::LeoFit fit = estimators::loadFit(rdr, nullptr);
        EXPECT_FALSE(rdr.ok());
        EXPECT_TRUE(fit.prediction.empty());
        EXPECT_EQ(fit.prior, nullptr);
        EXPECT_EQ(fit.rank(), 0u);
    }
}

/**
 * The factors are a fit's only variance source, and the kept block is
 * refactored rather than read, so loadFit rejects a blob it cannot
 * rebuild the saved basis from (a null or different prior, corrupt
 * observed units, a rank the rebuild disagrees with) and one whose
 * factor shapes disagree, instead of handing back a fit whose
 * predictiveVarianceAt throws or reads another basis. A fit with no
 * factors at all — what a controller installs after a failed fit —
 * still round-trips, with no prior.
 */
TEST(FitIo, RejectsInconsistentFactorShapes)
{
    // A real fit at q < n: only fits a PriorBasis produced can be
    // saved, which every production fit is.
    const FitProblem p = makeFitProblem(4);
    const auto basis = std::make_shared<const estimators::PriorBasis>(p.prior);
    const estimators::LeoEstimator est;
    const estimators::LeoFit good = est.fitMetric(basis, p.idx, p.vals);
    const std::size_t n = basis->dim();
    const std::size_t q = good.rank();
    ASSERT_LT(q, n);
    ASSERT_GE(good.observedUnits.size(), 2u);

    const auto roundTrip =
        [](const estimators::LeoFit &fit,
           const std::shared_ptr<const estimators::PriorBasis> &prior,
           bool &ok) {
        linalg::ByteWriter wtr;
        estimators::saveFit(wtr, fit);
        const std::string blob = wtr.take();
        linalg::ByteReader rdr(blob);
        estimators::LeoFit loaded = estimators::loadFit(rdr, prior);
        ok = rdr.ok() && rdr.atEnd();
        return loaded;
    };
    const auto expectRejected = [](const estimators::LeoFit &got,
                                   bool ok) {
        EXPECT_FALSE(ok);
        EXPECT_TRUE(got.prediction.empty());
        EXPECT_EQ(got.prior, nullptr);
        EXPECT_TRUE(got.kept.units.empty());
        EXPECT_TRUE(got.varCore.empty());
    };
    bool ok = false;
    const estimators::LeoFit loaded = roundTrip(good, basis, ok);
    ASSERT_TRUE(ok);
    ASSERT_NO_FATAL_FAILURE(expectFitsExactlyEqual(good, loaded, "good"));
    EXPECT_EQ(loaded.predictiveVarianceAt(3),
              good.predictiveVarianceAt(3));

    {
        SCOPED_TRACE("null prior under factors");
        const estimators::LeoFit got = roundTrip(good, nullptr, ok);
        expectRejected(got, ok);
    }
    {
        SCOPED_TRACE("another prior");
        const auto other = std::make_shared<const estimators::PriorBasis>(
            makeFitProblem(4, "swish").prior);
        ASSERT_NE(other->fingerprint(), basis->fingerprint());
        const estimators::LeoFit got = roundTrip(good, other, ok);
        expectRejected(got, ok);
    }

    struct Case
    {
        const char *what;
        void (*mutate)(estimators::LeoFit &, std::size_t n);
    };
    const Case cases[] = {
        {"wrong fingerprint",
         [](estimators::LeoFit &f, std::size_t) {
             f.priorFingerprint ^= 1;
         }},
        {"units out of order",
         [](estimators::LeoFit &f, std::size_t) {
             std::swap(f.observedUnits[0], f.observedUnits[1]);
         }},
        {"units duplicated",
         [](estimators::LeoFit &f, std::size_t) {
             f.observedUnits[1] = f.observedUnits[0];
         }},
        {"unit not below n",
         [](estimators::LeoFit &f, std::size_t dim) {
             f.observedUnits.back() = dim;
         }},
        {"q one more than the rebuilt rows",
         [](estimators::LeoFit &f, std::size_t) {
             const std::size_t q1 = f.rank() + 1;
             f.coeff = Matrix(q1, q1, 0.2);
             f.varCore = Matrix(q1, q1, 0.1);
         }},
        {"varCore 1x1 under a q-row basis",
         [](estimators::LeoFit &f, std::size_t) {
             f.varCore = Matrix(1, 1, 0.1);
         }},
        {"varCore not square",
         [](estimators::LeoFit &f, std::size_t) {
             f.varCore = Matrix(f.rank(), f.rank() + 1);
         }},
        {"varCore missing",
         [](estimators::LeoFit &f, std::size_t) { f.varCore = Matrix(); }},
        {"coeff one larger than the basis",
         [](estimators::LeoFit &f, std::size_t) {
             f.coeff = Matrix(f.rank() + 1, f.rank() + 1);
         }},
        {"coeff missing",
         [](estimators::LeoFit &f, std::size_t) { f.coeff = Matrix(); }},
        {"prediction shorter than n",
         [](estimators::LeoFit &f, std::size_t dim) {
             f.prediction = Vector(dim - 1, 2.0);
         }},
        {"prediction longer than n",
         [](estimators::LeoFit &f, std::size_t dim) {
             f.prediction = Vector(dim + 1, 2.0);
         }},
        {"prediction missing",
         [](estimators::LeoFit &f, std::size_t) {
             f.prediction = Vector();
         }},
        {"varCore alone",
         [](estimators::LeoFit &f, std::size_t) { f.coeff = Matrix(); }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.what);
        estimators::LeoFit bad = good;
        c.mutate(bad, n);
        const estimators::LeoFit got = roundTrip(bad, basis, ok);
        expectRejected(got, ok);
    }

    // saveFit writes the rank from the cores, so a q of 0 above them
    // (cores without a basis) only arises in a blob.
    {
        SCOPED_TRACE("cores without a basis");
        linalg::ByteWriter wtr;
        estimators::saveFit(wtr, good);
        std::string blob = wtr.take();
        // version, prediction, sigma2, iterations, converged, the
        // trace and scale, then q.
        const std::size_t at = 4 + (8 + 8 * n) + 8 + 8 + 1 + 8 +
                               8 * good.logLikelihoodTrace.size() + 8;
        ASSERT_EQ(static_cast<unsigned char>(blob[at]), q);
        blob[at] = 0;
        linalg::ByteReader rdr(blob);
        const estimators::LeoFit got = estimators::loadFit(rdr, basis);
        expectRejected(got, rdr.ok());
    }

    // A flag byte other than 0 or 1 would re-save to other bytes.
    {
        SCOPED_TRACE("converged byte 2");
        linalg::ByteWriter wtr;
        estimators::saveFit(wtr, good);
        std::string blob = wtr.take();
        // version, prediction, sigma2, iterations, then converged.
        const std::size_t at = 4 + (8 + 8 * n) + 8 + 8;
        ASSERT_EQ(blob[at], good.converged ? 1 : 0);
        blob[at] = 2;
        linalg::ByteReader rdr(blob);
        const estimators::LeoFit got = estimators::loadFit(rdr, basis);
        expectRejected(got, rdr.ok());
    }

    // Factor-less fits round-trip, value-initialized or not.
    estimators::LeoFit bare;
    bare.prediction = Vector(4, 2.0);
    bare.sigma2 = 0.01;
    bare.scale = 3.0;
    for (const estimators::LeoFit &f : {estimators::LeoFit{}, bare}) {
        const estimators::LeoFit back = roundTrip(f, nullptr, ok);
        EXPECT_TRUE(ok);
        ASSERT_NO_FATAL_FAILURE(
            expectFitsExactlyEqual(f, back, "factor-less"));
        EXPECT_THROW((void)back.predictiveVarianceAt(0), FatalError);
    }
}

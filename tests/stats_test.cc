/**
 * @file
 * Unit tests for the statistics substrate.
 */

#include <cmath>

#include <gtest/gtest.h>

#include "linalg/error.hh"
#include "stats/metrics.hh"
#include "stats/rng.hh"
#include "stats/summary.hh"
#include "support/mvn.hh"

using namespace leo;
using linalg::Matrix;
using linalg::Vector;

// ------------------------------------------------------------------ Rng

TEST(Rng, Deterministic)
{
    stats::Rng a(123), b(123);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    stats::Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniform() != b.uniform();
    EXPECT_TRUE(any_diff);
}

TEST(Rng, UniformRange)
{
    stats::Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(2.0, 3.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 3.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    stats::Rng rng(5);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    EXPECT_THROW(rng.uniformInt(2, 1), FatalError);
}

TEST(Rng, GaussianMoments)
{
    stats::Rng rng(9);
    stats::RunningStats acc;
    for (int i = 0; i < 20000; ++i)
        acc.push(rng.gaussian(5.0, 2.0));
    EXPECT_NEAR(acc.mean(), 5.0, 0.1);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST(Rng, SampleWithoutReplacement)
{
    stats::Rng rng(11);
    auto idx = rng.sampleWithoutReplacement(100, 20);
    EXPECT_EQ(idx.size(), 20u);
    std::vector<bool> seen(100, false);
    for (auto i : idx) {
        EXPECT_LT(i, 100u);
        EXPECT_FALSE(seen[i]) << "duplicate index " << i;
        seen[i] = true;
    }
    EXPECT_THROW(rng.sampleWithoutReplacement(5, 6), FatalError);
    auto all = rng.sampleWithoutReplacement(7, 7);
    EXPECT_EQ(all.size(), 7u);
}

TEST(Rng, ForkIndependence)
{
    stats::Rng a(42);
    stats::Rng fork1 = a.fork();
    stats::Rng fork2 = a.fork();
    // Distinct forks give distinct streams.
    bool differ = false;
    for (int i = 0; i < 8; ++i)
        differ |= fork1.uniform() != fork2.uniform();
    EXPECT_TRUE(differ);
}

// -------------------------------------------------------------- Metrics

TEST(Metrics, AccuracyPerfectAndClamped)
{
    Vector y{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::accuracy(y, y), 1.0);
    // Far-off estimate clamps to zero (Equation 5's max with 0).
    Vector bad{100.0, -50.0, 7.0, 0.0};
    EXPECT_DOUBLE_EQ(stats::accuracy(bad, y), 0.0);
}

TEST(Metrics, AccuracyMeanPredictorIsZero)
{
    Vector y{1.0, 2.0, 3.0};
    Vector mean_est(3, 2.0);
    EXPECT_DOUBLE_EQ(stats::accuracy(mean_est, y), 0.0);
}

TEST(Metrics, AccuracyScaleInvariance)
{
    // Equation (5) is invariant under a common scaling of estimate
    // and truth — the property that makes raw-unit accuracies equal
    // speedup-space accuracies.
    Vector y{2.0, 4.0, 8.0, 5.0};
    Vector e{2.1, 3.9, 7.7, 5.2};
    const double a1 = stats::accuracy(e, y);
    const double a2 = stats::accuracy(e * 3.5, y * 3.5);
    EXPECT_NEAR(a1, a2, 1e-12);
}

TEST(Metrics, AccuracyConstantTruth)
{
    Vector y(4, 3.0);
    EXPECT_DOUBLE_EQ(stats::accuracy(y, y), 1.0);
    Vector off{3.0, 3.0, 3.0, 3.1};
    EXPECT_DOUBLE_EQ(stats::accuracy(off, y), 0.0);
}

TEST(Metrics, RmseAndMae)
{
    Vector y{0.0, 0.0};
    Vector e{3.0, 4.0};
    EXPECT_NEAR(stats::rmse(e, y), std::sqrt(12.5), 1e-12);
    EXPECT_DOUBLE_EQ(stats::meanAbsoluteError(e, y), 3.5);
}

TEST(Metrics, Mape)
{
    Vector y{10.0, 20.0};
    Vector e{11.0, 18.0};
    EXPECT_NEAR(stats::meanAbsolutePercentageError(e, y), 0.1, 1e-12);
    Vector zero{0.0, 1.0};
    EXPECT_THROW(stats::meanAbsolutePercentageError(e, zero),
                 FatalError);
}

TEST(Metrics, PearsonCorrelation)
{
    Vector a{1.0, 2.0, 3.0, 4.0};
    EXPECT_NEAR(stats::pearsonCorrelation(a, a), 1.0, 1e-12);
    Vector b{4.0, 3.0, 2.0, 1.0};
    EXPECT_NEAR(stats::pearsonCorrelation(a, b), -1.0, 1e-12);
    Vector c(4, 7.0);
    EXPECT_DOUBLE_EQ(stats::pearsonCorrelation(a, c), 0.0);
}

// -------------------------------------------------------- RunningStats

TEST(RunningStats, BasicMoments)
{
    stats::RunningStats s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.push(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    stats::Rng rng(17);
    stats::RunningStats all, a, b;
    for (int i = 0; i < 500; ++i) {
        const double v = rng.gaussian(1.0, 3.0);
        all.push(v);
        (i % 2 == 0 ? a : b).push(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
}

TEST(RunningStats, Reset)
{
    stats::RunningStats s;
    s.push(1.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// ----------------------------------------------------------------- MVN
// The Gaussian utilities of the test-support library (support/mvn.hh):
// model-generated data and the oracle's conditioning step.

TEST(Mvn, SampleMomentsMatch)
{
    Matrix cov{{2.0, 0.6}, {0.6, 1.0}};
    Vector mean{1.0, -1.0};
    support::MultivariateNormal mvn(mean, cov);
    stats::Rng rng(23);
    stats::RunningStats m0, m1;
    double cross = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        Vector x = mvn.sample(rng);
        m0.push(x[0]);
        m1.push(x[1]);
        cross += (x[0] - 1.0) * (x[1] + 1.0);
    }
    EXPECT_NEAR(m0.mean(), 1.0, 0.05);
    EXPECT_NEAR(m1.mean(), -1.0, 0.05);
    EXPECT_NEAR(m0.variance(), 2.0, 0.1);
    EXPECT_NEAR(m1.variance(), 1.0, 0.05);
    EXPECT_NEAR(cross / n, 0.6, 0.05);
}

TEST(Mvn, LogPdfAgainstKnownValue)
{
    // Standard bivariate normal at the origin:
    // log pdf = -log(2 pi).
    Matrix cov = Matrix::identity(2);
    support::MultivariateNormal mvn(Vector{0.0, 0.0}, cov);
    EXPECT_NEAR(mvn.logPdf(Vector{0.0, 0.0}),
                -std::log(2.0 * std::numbers::pi), 1e-10);
}

TEST(Mvn, ConditioningShrinksVariance)
{
    // Strongly correlated pair; observing one nearly determines the
    // other.
    Matrix cov{{1.0, 0.95}, {0.95, 1.0}};
    Vector mu{0.0, 0.0};
    auto post = support::conditionOnObservations(mu, cov, {0},
                                                 Vector{2.0}, 0.01);
    EXPECT_GT(post.mean[1], 1.5);
    EXPECT_LT(post.cov(1, 1), cov(1, 1));
    EXPECT_LT(post.cov(0, 0), 0.02);
}

TEST(Mvn, ConditioningNoObservationsIsPrior)
{
    Matrix cov{{1.0, 0.2}, {0.2, 2.0}};
    Vector mu{3.0, 4.0};
    auto post =
        support::conditionOnObservations(mu, cov, {}, Vector{}, 0.1);
    EXPECT_DOUBLE_EQ(post.mean[0], 3.0);
    EXPECT_DOUBLE_EQ(post.cov(1, 1), 2.0);
}

TEST(Mvn, ConditioningMatchesPaperForm)
{
    // Equation (3) direct form: C = (diag(L)/s2 + Sigma^-1)^-1,
    // z = C (diag(L) y / s2 + Sigma^-1 mu). Verify the GP form used
    // in the implementation is algebraically identical.
    Matrix sigma{{1.5, 0.4, 0.1},
                 {0.4, 1.2, 0.3},
                 {0.1, 0.3, 0.9}};
    Vector mu{0.5, -0.2, 0.1};
    const double s2 = 0.05;
    std::vector<std::size_t> obs_idx{0, 2};
    Vector y_obs{1.0, -0.5};

    // Direct evaluation of Equation (3).
    Vector l(3, 0.0);
    l[0] = 1.0;
    l[2] = 1.0;
    Vector y_full(3, 0.0);
    y_full[0] = 1.0;
    y_full[2] = -0.5;
    // A = diag(L)/s2 + Sigma^-1 needs the explicit inverse (it is a
    // matrix sum), and C is compared entry-wise against the posterior
    // covariance below; the two inverse-times-vector products are
    // factored solves instead of inverse() multiplications.
    Matrix a = linalg::spdInverse(sigma);
    for (int i = 0; i < 3; ++i)
        a(i, i) += l[i] / s2;
    Matrix c = linalg::spdInverse(a);
    Vector rhs = linalg::spdSolve(sigma, mu);
    for (int i = 0; i < 3; ++i)
        rhs[i] += l[i] * y_full[i] / s2;
    Vector z_direct = linalg::spdSolve(a, rhs);

    // Implementation form.
    auto post =
        support::conditionOnObservations(mu, sigma, obs_idx, y_obs, s2);

    for (int i = 0; i < 3; ++i) {
        EXPECT_NEAR(post.mean[i], z_direct[i], 1e-9);
        for (int j = 0; j < 3; ++j)
            EXPECT_NEAR(post.cov(i, j), c(i, j), 1e-9);
    }
}

TEST(Mvn, RejectsBadNoise)
{
    Matrix cov = Matrix::identity(2);
    Vector mu(2, 0.0);
    EXPECT_THROW(support::conditionOnObservations(mu, cov, {0},
                                                  Vector{1.0}, 0.0),
                 FatalError);
}

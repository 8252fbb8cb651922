/**
 * @file
 * Equivalence harness for the factored EM fit.
 *
 * The fit carries Sigma = alpha I + Q' C Q (DESIGN.md section 7.2)
 * and evaluates the EM algebra in that rotated parameterization. The
 * dense reference loop of the test-support library
 * (support/leo_oracle.hh) evaluates the same algebra on the n x n
 * matrix, so the two agree to accumulated rounding, not to the bit:
 *
 *  - Relative L2 agreement with the oracle is pinned at documented
 *    tolerances: 1e-6 on predictions and means, 1e-4 on variances and
 *    on deliberately ill-conditioned and rank-deficient problems (the
 *    subspace rotation amplifies rounding roughly by the covariance
 *    condition number).
 *  - Where one fit is compared with itself through another entry
 *    point (shared basis, restored warm fit, permuted observations),
 *    equality is asserted at 0 ULP.
 *
 * Every fit in this file sets tolerance = 0 so fit and oracle run
 * exactly maxIterations: convergence is judged on a thresholded
 * quantity, and a 1e-15 rounding difference on the threshold's edge
 * would otherwise let one stop an iteration early and turn rounding
 * into a macroscopic (but meaningless) discrepancy.
 */

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/fit_io.hh"
#include "estimators/leo.hh"
#include "estimators/normalization.hh"
#include "estimators/prior_basis.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "linalg/serialize.hh"
#include "linalg/workspace.hh"
#include "obs/obs.hh"
#include "platform/config_space.hh"
#include "stats/rng.hh"
#include "support/leo_oracle.hh"

/** Heap-allocation audit hook (same pattern as estimators_test.cc). */
static std::atomic<std::size_t> g_heap_allocs{0};

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
using estimators::LeoEstimator;
using estimators::LeoFit;
using estimators::LeoOptions;
using linalg::Matrix;
using linalg::Vector;

namespace
{

/**
 * Synthetic prior: m positive shape vectors over n configurations
 * drawn from `rank` smooth latent directions plus per-shape noise.
 * rank < m produces a genuinely rank-deficient shape family;
 * noise = 0 makes shapes exact combinations of the latents.
 */
std::vector<Vector>
makePrior(std::size_t m, std::size_t n, std::size_t rank,
          unsigned seed, double noise = 0.05)
{
    stats::Rng rng(seed);
    std::vector<Vector> latents;
    for (std::size_t r = 0; r < rank; ++r) {
        Vector l(n);
        const double f = 0.5 + rng.uniform(0.0, 2.0);
        const double ph = rng.uniform(0.0, 6.28);
        for (std::size_t j = 0; j < n; ++j) {
            const double x =
                static_cast<double>(j) / static_cast<double>(n);
            l[j] = std::sin(f * 6.28 * x + ph) +
                   0.3 * std::cos((f + 1.0) * 12.0 * x);
        }
        latents.push_back(std::move(l));
    }
    std::vector<Vector> prior;
    for (std::size_t i = 0; i < m; ++i) {
        Vector y(n, 0.0);
        for (std::size_t r = 0; r < rank; ++r) {
            const double c = rng.uniform(0.2, 1.0);
            y.addScaled(c, latents[r]);
        }
        // Lift into positive territory and add measurement noise.
        double lo = y[0];
        for (std::size_t j = 1; j < n; ++j)
            lo = std::min(lo, y[j]);
        for (std::size_t j = 0; j < n; ++j) {
            y[j] += 1.0 - lo;
            if (noise > 0.0)
                y[j] *= 1.0 + rng.uniform(-noise, noise);
        }
        prior.push_back(std::move(y));
    }
    return prior;
}

/** Observation set: k spread-out indices, values near prior level. */
void
makeObservations(const std::vector<Vector> &prior, std::size_t k,
                 unsigned seed, std::vector<std::size_t> &idx,
                 Vector &vals)
{
    const std::size_t n = prior.front().size();
    stats::Rng rng(seed);
    idx = rng.sampleWithoutReplacement(n, std::min(k, n));
    vals = Vector(idx.size());
    for (std::size_t j = 0; j < idx.size(); ++j) {
        // The "target app" scales the first prior shape by ~40x.
        vals[j] = 40.0 * prior.front()[idx[j]] *
                  (1.0 + rng.uniform(-0.03, 0.03));
    }
}

double
relL2(const Vector &a, const Vector &b)
{
    double num = 0.0;
    double den = 0.0;
    for (std::size_t j = 0; j < a.size(); ++j) {
        const double d = a[j] - b[j];
        num += d * d;
        den += a[j] * a[j];
    }
    return std::sqrt(num) / (std::sqrt(den) + 1e-300);
}

LeoOptions
gridOptions()
{
    LeoOptions opt;
    opt.tolerance = 0.0; // fit and oracle run exactly maxIterations
    return opt;
}

/** The oracle fit of a problem under gridOptions(). */
support::OracleFit
oracleFit(const std::vector<Vector> &prior,
          const std::vector<std::size_t> &idx, const Vector &vals)
{
    return support::referenceFit(gridOptions(), prior, idx, vals);
}

} // namespace

// ----------------------------------------------------- LowRankBasis

TEST(LowRankBasis, OrthonormalAndSpanning)
{
    auto prior = makePrior(6, 64, 6, 11);
    linalg::LowRankBasis basis;
    basis.reset(64, 8);
    for (const Vector &x : prior)
        ASSERT_TRUE(basis.appendVector(x));
    ASSERT_TRUE(basis.appendUnit(17));
    EXPECT_EQ(basis.size(), 7u);

    // Rows pairwise orthonormal.
    for (std::size_t a = 0; a < basis.size(); ++a) {
        for (std::size_t b = 0; b <= a; ++b) {
            double d = 0.0;
            for (std::size_t j = 0; j < 64; ++j)
                d += basis.entry(a, j) * basis.entry(b, j);
            EXPECT_NEAR(d, a == b ? 1.0 : 0.0, 1e-12);
        }
    }

    // Round-trip: expand(coords(x)) == x for in-span vectors.
    Vector c, back;
    basis.coordsInto(c, prior[3]);
    basis.expandInto(back, c);
    EXPECT_LT(relL2(prior[3], back), 1e-12);
}

TEST(LowRankBasis, DropsDependentVectors)
{
    auto prior = makePrior(4, 32, 4, 5, 0.0);
    linalg::LowRankBasis basis;
    basis.reset(32, 8);
    for (const Vector &x : prior)
        ASSERT_TRUE(basis.appendVector(x));
    // An exact linear combination adds no direction.
    Vector combo(32, 0.0);
    combo.addScaled(0.5, prior[0]);
    combo.addScaled(2.0, prior[2]);
    EXPECT_FALSE(basis.appendVector(combo));
    EXPECT_EQ(basis.size(), 4u);
    // A repeated unit direction is likewise dropped.
    ASSERT_TRUE(basis.appendUnit(9));
    EXPECT_FALSE(basis.appendUnit(9));
}

// ------------------------------------------- Oracle equivalence

struct GridCase
{
    std::size_t m;
    std::size_t n;
    std::size_t rank;
    std::size_t obs;
};

class LowRankGrid : public ::testing::TestWithParam<GridCase>
{
};

TEST_P(LowRankGrid, MatchesDensePath)
{
    const GridCase gc = GetParam();
    auto prior = makePrior(gc.m, gc.n, gc.rank, 41 + gc.n);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, gc.obs, 7 + gc.m, idx, vals);

    const LeoEstimator lowrank(gridOptions());
    const support::OracleFit fd = oracleFit(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    Vector variance(gc.n);
    for (std::size_t c = 0; c < gc.n; ++c)
        variance[c] = fl.predictiveVarianceAt(c);

    ASSERT_EQ(fd.iterations, fl.iterations);
    ASSERT_TRUE(fl.prediction.allFinite());
    ASSERT_TRUE(variance.allFinite());

    // Documented equivalence bound for well-conditioned problems.
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-6);
    EXPECT_LT(relL2(fd.mu, fl.mu), 1e-6);
    EXPECT_LT(relL2(fd.predictionVariance, variance), 1e-4);
    EXPECT_NEAR(fl.sigma2, fd.sigma2,
                1e-6 * fd.sigma2 + 1e-12);

    // The factored Sigma must carry an orthonormal basis of at most
    // n directions.
    EXPECT_GE(fl.basisT.rows(), 1u);
    EXPECT_LE(fl.basisT.rows(), gc.n);
    // The n = 32 cases are built so the prior and the observed units
    // span all of R^n: the basis is full, q = n.
    if (gc.n == 32) {
        EXPECT_EQ(fl.basisT.rows(), gc.n);
    }
    EXPECT_EQ(fl.basisT.cols(), gc.n);
    EXPECT_EQ(fl.coeff.rows(), fl.basisT.rows());
    EXPECT_GT(fl.alphaDiag, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LowRankGrid,
    ::testing::Values(GridCase{4, 128, 4, 4},   // tiny
                      GridCase{8, 256, 8, 8},   // small
                      GridCase{12, 512, 12, 12}, // medium
                      GridCase{25, 1024, 25, 20}, // paper scale
                      GridCase{8, 256, 3, 8},   // rank-deficient prior
                      GridCase{25, 1024, 5, 20}, // strongly deficient
                      GridCase{6, 333, 6, 5},   // odd n (kernel tails)
                      GridCase{8, 256, 8, 0},   // no observations
                      GridCase{12, 32, 12, 20}, // q = n
                      GridCase{40, 32, 32, 6},  // prior spans R^n
                      GridCase{24, 32, 6, 20}), // small n, deficient
    [](const ::testing::TestParamInfo<GridCase> &info) {
        const GridCase &g = info.param;
        return "m" + std::to_string(g.m) + "_n" + std::to_string(g.n) +
               "_rank" + std::to_string(g.rank) + "_obs" +
               std::to_string(g.obs);
    });

TEST(LowRankEquivalence, IllConditionedPriorStaysClose)
{
    // Nearly collinear shapes: the dense covariance is within 1e-8
    // of singular, which is where the rotated algebra diverges
    // fastest. The documented bound here is 1e-4.
    const std::size_t n = 256;
    auto prior = makePrior(1, n, 1, 3, 0.0);
    stats::Rng rng(17);
    for (std::size_t i = 1; i < 10; ++i) {
        Vector y = prior[0];
        for (std::size_t j = 0; j < n; ++j)
            y[j] *= 1.0 + 1e-8 * rng.uniform(-1.0, 1.0);
        prior.push_back(std::move(y));
    }
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 8, 23, idx, vals);

    const LeoEstimator lowrank(gridOptions());
    const support::OracleFit fd = oracleFit(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    ASSERT_TRUE(fl.prediction.allFinite());
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-4);
}

TEST(LowRankEquivalence, DuplicateObservationIndices)
{
    // Repeated indices shrink the basis (the second unit vector is
    // in-span) but fit and oracle must accept them and agree.
    auto prior = makePrior(8, 200, 8, 9);
    std::vector<std::size_t> idx{5, 50, 5, 120, 50};
    Vector vals(5);
    for (std::size_t j = 0; j < 5; ++j)
        vals[j] = 30.0 * prior[0][idx[j]];

    const LeoEstimator lowrank(gridOptions());
    const support::OracleFit fd = oracleFit(prior, idx, vals);
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    ASSERT_TRUE(fl.prediction.allFinite());
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-6);
}

// ------------------------------------------------------- Warm starts

TEST(LowRankWarm, WarmStartResumesAndStaysEquivalent)
{
    auto prior = makePrior(10, 512, 10, 53);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 10, 57, idx, vals);

    const LeoEstimator est(gridOptions());
    linalg::Workspace ws;
    const LeoFit cold = est.fitMetric(prior, idx, vals, &ws, nullptr);

    // Add one observation and refit warm; the warm fit must converge
    // to (essentially) the cold refit of the same problem.
    std::vector<std::size_t> idx2 = idx;
    idx2.push_back((idx.back() + 101) % 512);
    Vector vals2(idx2.size());
    for (std::size_t j = 0; j + 1 < idx2.size(); ++j)
        vals2[j] = vals[j];
    vals2[idx2.size() - 1] = 40.0 * prior[0][idx2.back()];

    const LeoFit warm = est.fitMetric(prior, idx2, vals2, &ws, &cold);
    EXPECT_TRUE(warm.warmStarted);
    const LeoFit cold2 = est.fitMetric(prior, idx2, vals2);
    EXPECT_LT(relL2(cold2.prediction, warm.prediction), 5e-3);
}

TEST(LowRankWarm, DenseWarmFitIsIgnoredByLowRankPath)
{
    // A warm fit carrying a theta but no factors (the service
    // installs factor-less fits when a batched fit fails) must not
    // poison the init: the fit falls back to cold, bit for bit, and
    // stays finite.
    auto prior = makePrior(6, 256, 6, 61);
    const std::vector<std::size_t> idx{4, 80};
    const Vector vals{12.0, 13.0};
    const support::OracleFit fd = oracleFit(prior, idx, vals);
    LeoFit dense;
    dense.prediction = fd.prediction;
    dense.mu = fd.mu;
    dense.sigma2 = fd.sigma2;
    dense.scale = fd.scale;

    const LeoEstimator lowrank(gridOptions());
    const LeoFit fl =
        lowrank.fitMetric(prior, idx, vals, nullptr, &dense);
    EXPECT_FALSE(fl.warmStarted);
    EXPECT_TRUE(fl.prediction.allFinite());
    const LeoFit cold = lowrank.fitMetric(prior, idx, vals);
    for (std::size_t j = 0; j < cold.prediction.size(); ++j)
        ASSERT_EQ(fl.prediction[j], cold.prediction[j]) << j;
}

// ----------------------------------------------- Allocation contract

TEST(LowRankHotLoop, SerialLoopIsAllocationFree)
{
    auto prior = makePrior(10, 512, 10, 67);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 10, 71, idx, vals);

    const LeoEstimator est(gridOptions());
    linalg::Workspace ws;
    // Prime the arena, then audit a second fit's loop.
    (void)est.fitMetric(prior, idx, vals, &ws, nullptr);
    estimators::setAllocationCounter(
        +[]() -> std::size_t { return g_heap_allocs.load(); });
    const LeoFit fit = est.fitMetric(prior, idx, vals, &ws, nullptr);
    estimators::setAllocationCounter(nullptr);
    EXPECT_EQ(fit.loopAllocations, 0u);
}

// ------------------------------------- factored predictive variance

/**
 * predictiveVarianceAt evaluates single entries of the factored
 * posterior bitwise identically to the full expansion that fits no
 * longer run: varCore basisT formed by Matrix::multiplyInto, its
 * diagonal against basisT summed in increasing k, then the isotropic
 * terms and the scale. That fill is kept here as the reference.
 */
TEST(LowRankVariance, OnDemandMatchesExpandedBitwise)
{
    auto prior = makePrior(8, 96, 8, 21);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 12, 22, idx, vals);

    const LeoFit fit =
        LeoEstimator(gridOptions()).fitMetric(prior, idx, vals);
    const std::size_t q = fit.basisT.rows();
    const std::size_t n = fit.basisT.cols();
    ASSERT_EQ(n, 96u);
    ASSERT_GT(q, 0u);
    ASSERT_EQ(fit.varCore.rows(), q);

    Matrix predt;
    Matrix::multiplyInto(predt, fit.varCore, fit.basisT);
    Vector cov_diag(n, 0.0);
    for (std::size_t k = 0; k < q; ++k) {
        const double *qk = fit.basisT.data() + k * n;
        const double *tk = predt.data() + k * n;
        for (std::size_t j = 0; j < n; ++j)
            cov_diag[j] += qk[j] * tk[j];
    }
    for (std::size_t c = 0; c < n; ++c) {
        const double expanded = (fit.alphaDiag + cov_diag[c] +
                                 fit.sigma2) *
                                fit.scale * fit.scale;
        ASSERT_TRUE(std::isfinite(expanded));
        EXPECT_EQ(std::bit_cast<std::uint64_t>(fit.predictiveVarianceAt(c)),
                  std::bit_cast<std::uint64_t>(expanded))
            << "config " << c;
    }
    EXPECT_THROW(fit.predictiveVarianceAt(n), FatalError);
    EXPECT_THROW(LeoFit{}.predictiveVarianceAt(0), FatalError);
}

// ------------------------------------------------ shared prior basis

namespace
{

std::uint64_t
bitsOf(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

void
expectSameBits(const Vector &a, const Vector &b, const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t j = 0; j < a.size(); ++j)
        ASSERT_EQ(bitsOf(a[j]), bitsOf(b[j])) << what << "[" << j << "]";
}

void
expectSameBits(const Matrix &a, const Matrix &b, const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(bitsOf(a.at(r, c)), bitsOf(b.at(r, c)))
                << what << "(" << r << "," << c << ")";
}

/** Every model field of two fits, at 0 ULP. */
void
expectFitsBitwise(const LeoFit &a, const LeoFit &b)
{
    expectSameBits(a.prediction, b.prediction, "prediction");
    expectSameBits(a.mu, b.mu, "mu");
    EXPECT_EQ(bitsOf(a.sigma2), bitsOf(b.sigma2));
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.converged, b.converged);
    ASSERT_EQ(a.logLikelihoodTrace.size(), b.logLikelihoodTrace.size());
    for (std::size_t i = 0; i < a.logLikelihoodTrace.size(); ++i)
        EXPECT_EQ(bitsOf(a.logLikelihoodTrace[i]),
                  bitsOf(b.logLikelihoodTrace[i]));
    EXPECT_EQ(bitsOf(a.scale), bitsOf(b.scale));
    EXPECT_EQ(a.warmStarted, b.warmStarted);
    expectSameBits(a.basisT, b.basisT, "basisT");
    expectSameBits(a.coeff, b.coeff, "coeff");
    EXPECT_EQ(bitsOf(a.alphaDiag), bitsOf(b.alphaDiag));
    expectSameBits(a.varCore, b.varCore, "varCore");
}

/** Builds of PriorBasis counted by the global registry so far. */
std::uint64_t
basesBuilt()
{
    return obs::Registry::global()
        .counter(obs::names::kEmPriorBasisBuilt)
        .value();
}

/** Max |Q Q' - I| over the rows of a fit's basis. */
double
orthonormalityError(const Matrix &q)
{
    double worst = 0.0;
    for (std::size_t a = 0; a < q.rows(); ++a)
        for (std::size_t b = 0; b <= a; ++b) {
            double d = 0.0;
            for (std::size_t j = 0; j < q.cols(); ++j)
                d += q.at(a, j) * q.at(b, j);
            worst = std::max(worst, std::abs(d - (a == b ? 1.0 : 0.0)));
        }
    return worst;
}

/** 256 configurations: the reduced factorial space at strides 2. */
platform::ConfigSpace
space256()
{
    const platform::Machine machine;
    return platform::ConfigSpace::reducedFactorial(machine, 2, 2);
}

} // namespace

TEST(PriorBasis, HoldsNormalizedShapesAndOneBuild)
{
    auto prior = makePrior(9, 256, 9, 301);
    const std::uint64_t before = basesBuilt();
    const estimators::PriorBasis basis(prior);
    EXPECT_EQ(basesBuilt() - before, 1u);

    const auto shapes = estimators::normalizeShapes(prior);
    ASSERT_EQ(basis.shapes().size(), shapes.size());
    for (std::size_t i = 0; i < shapes.size(); ++i)
        expectSameBits(basis.shapes()[i], shapes[i], "shape");
    EXPECT_EQ(basis.dim(), 256u);
    EXPECT_EQ(basis.apps(), 9u);
    EXPECT_EQ(basis.rank(), 9u);
    EXPECT_LT(orthonormalityError(basis.rows()), 1e-12);
    // The coordinates reproduce the shapes.
    for (std::size_t i = 0; i < 9; ++i) {
        Vector back(256, 0.0);
        for (std::size_t k = 0; k < basis.rank(); ++k)
            for (std::size_t j = 0; j < 256; ++j)
                back[j] += basis.coords().at(i, k) * basis.rows().at(k, j);
        EXPECT_LT(relL2(shapes[i], back), 1e-12);
    }

    EXPECT_EQ(estimators::PriorBasis::tryBuild({}), nullptr);
    EXPECT_EQ(estimators::PriorBasis::tryBuild({Vector{-1.0, 1.0}}),
              nullptr);
    EXPECT_THROW(estimators::PriorBasis({Vector(3, 1.0), Vector(2, 1.0)}),
                 FatalError);
}

/**
 * The one-fit-path guarantee: a fit through a shared basis is the
 * fit from the raw prior vectors, bit for bit — cold and warm, with
 * a basis that is a small or a large share of n.
 */
TEST(PriorBasis, SharedBasisFitMatchesRawVectorsBitwise)
{
    const platform::ConfigSpace space = space256();
    for (const std::size_t m : {std::size_t{12}, std::size_t{70}}) {
        SCOPED_TRACE("m = " + std::to_string(m));
        auto prior = makePrior(m, 256, m, 311 + m);
        std::vector<std::size_t> idx;
        Vector vals;
        makeObservations(prior, 10, 313, idx, vals);
        const LeoEstimator est(gridOptions());
        const estimators::PriorBasis basis(prior);

        LeoFit raw_cold, shared_cold;
        const auto raw_est = est.estimateMetric(
            space, prior, idx, vals, nullptr, nullptr, &raw_cold);
        const auto shared_est = est.estimateMetric(
            space, basis, idx, vals, nullptr, nullptr, &shared_cold);
        expectSameBits(raw_est.values, shared_est.values, "cold values");
        expectFitsBitwise(raw_cold, shared_cold);

        // Warm refit with one more observation.
        idx.push_back((idx.back() + 77) % 256);
        vals.push_back(40.0 * prior.front()[idx.back()]);
        LeoFit raw_warm, shared_warm;
        linalg::Workspace ws;
        est.estimateMetric(space, prior, idx, vals, &ws, &raw_cold,
                           &raw_warm);
        est.estimateMetric(space, basis, idx, vals, nullptr,
                           &shared_cold, &shared_warm);
        EXPECT_TRUE(raw_warm.warmStarted);
        expectFitsBitwise(raw_warm, shared_warm);

        // fitMetric takes the same path.
        expectFitsBitwise(est.fitMetric(prior, idx, vals, nullptr,
                                        &raw_cold),
                          est.fitMetric(basis, idx, vals, &ws,
                                        &shared_cold));
    }
}

/**
 * The warm branch is chosen by content: a fit restored by
 * saveFit/loadFit warm-starts to the same bits as the live fit.
 */
TEST(PriorBasis, WarmStartFromRestoredFitMatchesLiveFit)
{
    auto prior = makePrior(10, 512, 10, 321);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 12, 323, idx, vals);
    const LeoEstimator est(gridOptions());
    const estimators::PriorBasis basis(prior);
    const LeoFit cold = est.fitMetric(basis, idx, vals, nullptr, nullptr);
    // The fit's basis leads with the shared prior block.
    ASSERT_GE(cold.basisT.rows(), basis.rank());
    for (std::size_t k = 0; k < basis.rank(); ++k)
        for (std::size_t j = 0; j < 512; ++j)
            ASSERT_EQ(bitsOf(cold.basisT.at(k, j)),
                      bitsOf(basis.rows().at(k, j)));

    linalg::ByteWriter wr;
    estimators::saveFit(wr, cold);
    const std::string blob = wr.take();
    linalg::ByteReader rd(blob);
    const LeoFit loaded = estimators::loadFit(rd, &basis);
    ASSERT_TRUE(rd.ok());

    std::vector<std::size_t> idx2 = idx;
    Vector vals2 = vals;
    idx2.push_back((idx.front() + 201) % 512);
    vals2.push_back(40.0 * prior.front()[idx2.back()]);
    const LeoFit from_live =
        est.fitMetric(basis, idx2, vals2, nullptr, &cold);
    const LeoFit from_loaded =
        est.fitMetric(prior, idx2, vals2, nullptr, &loaded);
    EXPECT_TRUE(from_live.warmStarted);
    expectFitsBitwise(from_live, from_loaded);

    // And a warm start stays close to the cold refit it shortcuts.
    const LeoFit cold2 = est.fitMetric(prior, idx2, vals2);
    EXPECT_LT(relL2(cold2.prediction, from_live.prediction), 5e-3);
}

/**
 * The drop rule: a unit vector already in the prior span adds no
 * direction, and exact duplicate indices share one.
 */
TEST(PriorBasis, UnitInsidePriorSpanAddsNoDirection)
{
    const std::size_t n = 128;
    auto prior = makePrior(6, n, 6, 331);
    // ones and ones + 3 e_17 put e_17 inside the prior span.
    Vector spike(n, 1.0);
    spike[17] += 3.0;
    prior.push_back(Vector(n, 1.0));
    prior.push_back(spike);
    const estimators::PriorBasis basis(prior);
    ASSERT_EQ(basis.rank(), 8u);

    const std::vector<std::size_t> idx{17, 40, 90};
    const Vector vals{30.0, 31.0, 29.0};
    const LeoEstimator lowrank(gridOptions());
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    EXPECT_EQ(fl.basisT.rows(), 10u); // e_17 dropped
    EXPECT_LT(orthonormalityError(fl.basisT), 1e-12);
    ASSERT_TRUE(fl.prediction.allFinite());
    EXPECT_LT(relL2(oracleFit(prior, idx, vals).prediction,
                    fl.prediction),
              1e-6);

    // A prior spanning all of R^n leaves no room for any unit.
    auto full = makePrior(10, 8, 8, 333);
    const LeoFit ff = lowrank.fitMetric(full, {1, 5, 6},
                                        Vector{9.0, 11.0, 10.0});
    EXPECT_EQ(ff.basisT.rows(), 8u);
    EXPECT_LT(orthonormalityError(ff.basisT), 1e-12);
    EXPECT_TRUE(ff.prediction.allFinite());
}

TEST(PriorBasis, DuplicateIndicesShareOneDirection)
{
    auto prior = makePrior(8, 200, 8, 9);
    const std::vector<std::size_t> idx{5, 50, 5, 120, 50};
    Vector vals(5);
    for (std::size_t j = 0; j < 5; ++j)
        vals[j] = 30.0 * prior[0][idx[j]];
    const LeoEstimator lowrank(gridOptions());
    const LeoFit fl = lowrank.fitMetric(prior, idx, vals);
    EXPECT_EQ(fl.basisT.rows(), 8u + 3u);
    EXPECT_LT(orthonormalityError(fl.basisT), 1e-12);
}

/**
 * The fit cache keys on the order-free Observations::contentHash, so
 * the fit must be order-free too: any permutation of one sample set
 * fits to the same bits.
 */
TEST(PriorBasis, PermutedObservationsFitIdentically)
{
    const platform::ConfigSpace space = space256();
    auto prior = makePrior(12, 256, 12, 341);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 20, 343, idx, vals);
    std::vector<std::size_t> rev_idx(idx.rbegin(), idx.rend());
    Vector rev_vals(vals.size());
    for (std::size_t j = 0; j < vals.size(); ++j)
        rev_vals[j] = vals[vals.size() - 1 - j];

    const LeoEstimator est(gridOptions());
    LeoFit fwd, rev;
    const auto a = est.estimateMetric(space, prior, idx, vals, nullptr,
                                      nullptr, &fwd);
    const auto b = est.estimateMetric(space, prior, rev_idx, rev_vals,
                                      nullptr, nullptr, &rev);
    expectSameBits(a.values, b.values, "values");
    expectFitsBitwise(fwd, rev);
    expectFitsBitwise(est.fitMetric(prior, idx, vals),
                      est.fitMetric(prior, rev_idx, rev_vals));
}

/** A prior the basis cannot be built from degrades as before: no
 *  throw, a flagged flat estimate at the observed mean. */
TEST(PriorBasis, UnbuildablePriorDegrades)
{
    const platform::ConfigSpace space = space256();
    std::vector<Vector> bad = makePrior(4, 256, 4, 351);
    bad[2] = Vector(256, -1.0); // non-positive mean
    const LeoEstimator est(gridOptions());
    const auto e = est.estimateMetric(space, bad, {3, 9},
                                      Vector{10.0, 14.0});
    EXPECT_FALSE(e.reliable);
    ASSERT_EQ(e.values.size(), 256u);
    for (std::size_t j = 0; j < 256; ++j)
        EXPECT_EQ(e.values[j], 12.0);
}

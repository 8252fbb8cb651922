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
 *    tolerances: 1e-6 on predictions, 1e-4 on variances and
 *    on deliberately ill-conditioned and rank-deficient problems (the
 *    subspace rotation amplifies rounding roughly by the covariance
 *    condition number).
 *  - Where one fit is compared with itself through another entry
 *    point (shared basis, restored fit, permuted observations),
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
#include <memory>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/estimator.hh"
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
#include "support/basis_oracle.hh"
#include "support/fit_compare.hh"
#include "support/leo_oracle.hh"
#include "telemetry/meters.hh"
#include "telemetry/profile_store.hh"
#include "workloads/suite.hh"

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
using support::expectFitsBitwise;
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
            y += latents[r] * c;
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
    const Matrix rows = basis.releaseRows();
    ASSERT_EQ(rows.rows(), 7u);
    EXPECT_EQ(basis.size(), 0u);
    const Vector c = support::coordinatesOf(rows, prior[3]);
    EXPECT_LT(relL2(prior[3], support::expansionOf(rows, c)), 1e-12);
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
    combo += prior[0] * 0.5;
    combo += prior[2] * 2.0;
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
    EXPECT_LT(relL2(fd.predictionVariance, variance), 1e-4);
    EXPECT_NEAR(fl.sigma2, fd.sigma2,
                1e-6 * fd.sigma2 + 1e-12);

    // The factored Sigma must carry an orthonormal basis of at most
    // n directions.
    const Matrix basis = fl.basis();
    EXPECT_GE(basis.rows(), 1u);
    EXPECT_LE(basis.rows(), gc.n);
    // The n = 32 cases are built so the prior and the observed units
    // span all of R^n: the basis is full, q = n.
    if (gc.n == 32) {
        EXPECT_EQ(basis.rows(), gc.n);
    }
    EXPECT_EQ(basis.cols(), gc.n);
    EXPECT_EQ(fl.rank(), basis.rows());
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
    [](const ::testing::TestParamInfo<GridCase> &param_info) {
        const GridCase &g = param_info.param;
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
    // The fit's observed-noise term is closed-form in A^-1, exact only
    // because P P' is the duplicate indicator: sigma^2 pins it.
    EXPECT_EQ(fl.iterations, fd.iterations);
    EXPECT_NEAR(fl.sigma2, fd.sigma2, 1e-6 * fd.sigma2 + 1e-12);
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
    (void)est.fitMetric(prior, idx, vals, &ws);
    estimators::setAllocationCounter(
        +[]() -> std::size_t { return g_heap_allocs.load(); });
    const LeoFit fit = est.fitMetric(prior, idx, vals, &ws);
    estimators::setAllocationCounter(nullptr);
    EXPECT_EQ(fit.loopAllocations, 0u);
}

// ------------------------------------- factored predictive variance

/**
 * predictiveVarianceAt evaluates single entries of the factored
 * posterior bitwise identically to the full expansion that fits no
 * longer run: varCore Q formed by Matrix::multiplyInto, its diagonal
 * against Q summed in increasing k, then the isotropic terms and the
 * scale. That fill is kept here as the reference, on the basis the
 * fit materializes (basis()).
 */
TEST(LowRankVariance, OnDemandMatchesExpandedBitwise)
{
    auto prior = makePrior(8, 96, 8, 21);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 12, 22, idx, vals);

    const LeoFit fit =
        LeoEstimator(gridOptions()).fitMetric(prior, idx, vals);
    const Matrix basis = fit.basis();
    const std::size_t q = basis.rows();
    const std::size_t n = basis.cols();
    ASSERT_EQ(n, 96u);
    ASSERT_GT(q, 0u);
    ASSERT_EQ(fit.varCore.rows(), q);

    Matrix predt;
    Matrix::multiplyInto(predt, fit.varCore, basis);
    Vector cov_diag(n, 0.0);
    for (std::size_t k = 0; k < q; ++k) {
        const double *qk = basis.data() + k * n;
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

// ------------------------------------------- expansion from the factors

/**
 * No fit forms Q_o: the prediction expands through the kept block
 * (estimators::expandInto). The expansion must still be Q' t of the
 * basis the fit materializes, to rounding, for any coordinates t and
 * for the fit's own prediction — on two fits whose kept units differ,
 * with the basis a small share of n (256, 1024) and all of it (32).
 */
TEST(LowRankExpansion, PredictionAndMuMatchMaterializedBasis)
{
    struct Case
    {
        std::size_t m, n, rank, obs;
    };
    for (const Case c : {Case{10, 256, 10, 12}, Case{25, 1024, 25, 20},
                         Case{12, 32, 12, 20}}) {
        SCOPED_TRACE("n = " + std::to_string(c.n));
        auto prior = makePrior(c.m, c.n, c.rank, 401 + c.n);
        std::vector<std::size_t> idx;
        Vector vals;
        makeObservations(prior, c.obs, 403 + c.n, idx, vals);
        const LeoEstimator est(gridOptions());
        const auto basis =
            std::make_shared<const estimators::PriorBasis>(prior);
        const LeoFit first = est.fitMetric(basis, idx, vals);
        // The refit swaps one probe, so its kept units differ from
        // the first fit's.
        idx[0] = (idx[0] + c.n / 2 + 1) % c.n;
        vals[0] = 40.0 * prior.front()[idx[0]];
        const LeoFit refit = est.fitMetric(basis, idx, vals);

        stats::Rng rng(405 + c.n);
        for (const LeoFit *fit : {&first, &refit}) {
            const Matrix q = fit->basis();
            ASSERT_EQ(q.rows(), fit->rank());
            if (c.n == 32) {
                EXPECT_EQ(q.rows(), c.n);
            } else {
                EXPECT_LT(q.rows(), c.n);
            }
            // Arbitrary coordinates.
            Vector t(q.rows());
            for (std::size_t k = 0; k < t.size(); ++k)
                t[k] = rng.uniform(-1.0, 1.0);
            Vector want, got;
            linalg::gemvTransInto(want, q, t);
            estimators::expandInto(got, *fit->prior, fit->kept, t);
            EXPECT_LE(relL2(want, got), 1e-13);

            // The fit's own unclamped prediction is Q' t for its
            // coordinates t = Q x.
            Vector pred = fit->prediction;
            for (std::size_t j = 0; j < pred.size(); ++j) {
                ASSERT_GT(pred[j], 0.0);
                pred[j] /= fit->scale;
            }
            Vector coords, back;
            linalg::gemvInto(coords, q, pred);
            linalg::gemvTransInto(back, q, coords);
            EXPECT_LE(relL2(pred, back), 1e-13);
            estimators::expandInto(got, *fit->prior, fit->kept, coords);
            EXPECT_LE(relL2(pred, got), 1e-13);
        }
    }
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
    const auto shared = std::make_shared<const estimators::PriorBasis>(prior);
    const estimators::PriorBasis &basis = *shared;
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

namespace
{

/** The standard suite profiled on a space, one store per call. */
telemetry::ProfileStore
suiteStore(const platform::ConfigSpace &space)
{
    const platform::Machine machine;
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    stats::Rng rng(5);
    return telemetry::ProfileStore::collect(workloads::standardSuite(),
                                            machine, space, monitor,
                                            meter, rng);
}

/**
 * Pin one production build against the reference build on the same
 * prior: equal ranks, Q_p within 1e-12 of the reference rows and
 * orthonormal to 1e-13, and R within 1e-12 (relative to each shape's
 * norm) of the reference coordinates, exactly zero right of the
 * direction each shape added or, for a dropped shape, right of the
 * rows kept before it.
 */
void
expectMatchesReference(const std::vector<Vector> &prior)
{
    const estimators::PriorBasis basis(prior);
    const support::OracleBasis ref = support::referenceBasis(
        estimators::normalizeShapes(prior));
    ASSERT_EQ(basis.rank(), ref.rows.rows());
    const std::size_t r = basis.rank();
    const std::size_t n = basis.dim();

    double worst_q = 0.0;
    for (std::size_t k = 0; k < r; ++k)
        for (std::size_t j = 0; j < n; ++j)
            worst_q = std::max(worst_q, std::abs(basis.rows().at(k, j) -
                                                 ref.rows.at(k, j)));
    EXPECT_LT(worst_q, 1e-12);
    EXPECT_LT(orthonormalityError(basis.rows()), 1e-13);

    ASSERT_EQ(basis.coords().rows(), prior.size());
    ASSERT_EQ(basis.coords().cols(), r);
    // Replay the appends: the rank after shape i's append is the
    // number of its entries left of the zeros (its own direction
    // included when it was kept).
    linalg::LowRankBasis replay;
    replay.reset(n, prior.size());
    for (std::size_t i = 0; i < prior.size(); ++i) {
        replay.appendVector(basis.shapes()[i]);
        const std::size_t own = replay.size();
        const double norm =
            std::sqrt(linalg::dot(basis.shapes()[i], basis.shapes()[i]));
        for (std::size_t k = 0; k < r; ++k) {
            if (k < own)
                EXPECT_LE(std::abs(basis.coords().at(i, k) -
                                   ref.coords.at(i, k)),
                          1e-12 * norm)
                    << "R(" << i << "," << k << ")";
            else
                EXPECT_EQ(bitsOf(basis.coords().at(i, k)), 0u)
                    << "R(" << i << "," << k << ")";
        }
    }
}

} // namespace

/**
 * The CGS2 build against the MGS2-then-project reference on the 25
 * leave-one-out priors of the standard suite, both metrics, at 256
 * and 1024 configurations: what every controller and service builds.
 * Each space also runs one rank-deficient prior, a leave-one-out
 * prior with a duplicate and an exact combination inserted ahead of
 * shapes that are kept, so the dropped shapes' rows of R are checked
 * where a later direction follows them.
 */
TEST(PriorBasis, MatchesReferenceBuildOnSuitePriors)
{
    const platform::Machine machine;
    for (const platform::ConfigSpace &space :
         {platform::ConfigSpace::reducedFactorial(machine, 2, 2),
          platform::ConfigSpace::fullFactorial(machine)}) {
        const telemetry::ProfileStore store = suiteStore(space);
        ASSERT_EQ(store.numApplications(), 25u);
        for (const telemetry::ApplicationRecord &app : store.records()) {
            const telemetry::ProfileStore loo = store.without(app.name);
            for (const estimators::Metric metric :
                 {estimators::Metric::Performance,
                  estimators::Metric::Power}) {
                SCOPED_TRACE(
                    "n = " + std::to_string(space.size()) +
                    ", without " + app.name +
                    (metric == estimators::Metric::Performance
                         ? ", performance"
                         : ", power"));
                expectMatchesReference(
                    estimators::priorVectors(loo, metric));
            }
        }

        SCOPED_TRACE("rank-deficient, n = " +
                     std::to_string(space.size()));
        std::vector<Vector> prior = estimators::priorVectors(
            store.without(store.records().front().name),
            estimators::Metric::Performance);
        Vector combo(space.size(), 0.0);
        combo += prior[2] * 0.5;
        combo += prior[5] * 2.0;
        prior.insert(prior.begin() + 1, prior[0]);
        prior.insert(prior.begin() + 4, combo);
        expectMatchesReference(prior);
        EXPECT_EQ(estimators::PriorBasis(prior).rank(), 24u);
    }
}

/**
 * The drop rule decides as the reference does on the vectors it
 * exists for: an exact duplicate and an exact linear combination are
 * dropped, and a combination lifted off the span by a residual of
 * 1e-9 of its norm is kept while one at 1e-11 is dropped (either
 * side of the 1e-10 threshold). A dropped vector's coefficients
 * still reproduce it from the kept rows.
 */
TEST(PriorBasis, DropDecisionsMatchReference)
{
    const std::size_t n = 256;
    const std::vector<Vector> base = makePrior(5, n, 5, 331, 0.0);
    const support::OracleBasis span = support::referenceBasis(base);
    ASSERT_EQ(span.rows.rows(), 5u);

    // A unit direction orthogonal to the base span.
    Vector off(n);
    for (std::size_t j = 0; j < n; ++j)
        off[j] = std::cos(0.37 * static_cast<double>(j * j % 97));
    for (int pass = 0; pass < 2; ++pass) {
        const Vector in_span = support::expansionOf(
            span.rows, support::coordinatesOf(span.rows, off));
        for (std::size_t j = 0; j < n; ++j)
            off[j] -= in_span[j];
    }
    off /= std::sqrt(linalg::dot(off, off));

    Vector combo(n, 0.0);
    combo += base[0] * 0.5;
    combo += base[2] * 2.0;
    combo += base[4] * -0.25;
    const double combo_norm = std::sqrt(linalg::dot(combo, combo));
    const auto lifted = [&](double ratio) {
        Vector v = combo;
        v += off * (ratio * combo_norm);
        return v;
    };
    struct Probe
    {
        const char *what;
        Vector x;
        bool kept;
    };
    const std::vector<Probe> probes = {
        {"duplicate", base[1], false},
        {"combination", combo, false},
        {"ratio 1e-9", lifted(1e-9), true},
        {"ratio 1e-11", lifted(1e-11), false},
    };
    for (const Probe &p : probes) {
        SCOPED_TRACE(p.what);
        std::vector<Vector> vectors = base;
        vectors.push_back(p.x);
        const support::OracleBasis ref = support::referenceBasis(vectors);
        linalg::LowRankBasis basis;
        basis.reset(n, vectors.size());
        for (std::size_t i = 0; i < base.size(); ++i)
            ASSERT_TRUE(basis.appendVector(vectors[i]));
        EXPECT_EQ(basis.appendVector(p.x), p.kept);
        EXPECT_EQ(basis.size(), ref.rows.rows());
        EXPECT_EQ(ref.rows.rows(), p.kept ? 6u : 5u);
        if (!p.kept) {
            const Vector &c = basis.coefficients();
            ASSERT_EQ(c.size(), 6u);
            Vector coords(5);
            for (std::size_t k = 0; k < 5; ++k)
                coords[k] = c[k];
            EXPECT_LT(relL2(p.x, support::expansionOf(
                                     basis.releaseRows(), coords)),
                      1e-10);
        }
    }
}

/**
 * The one-fit-path guarantee: a fit through a shared basis is the
 * fit from the raw prior vectors, bit for bit — a first fit and a
 * refit with one more probe through a reused workspace, with a basis
 * that is a small or a large share of n.
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
        const auto basis =
            std::make_shared<const estimators::PriorBasis>(prior);

        LeoFit raw_first, shared_first;
        linalg::Workspace ws;
        const auto raw_est =
            est.estimateMetric(space, prior, idx, vals, &ws, &raw_first);
        const auto shared_est = est.estimateMetric(
            space, basis, idx, vals, nullptr, &shared_first);
        expectSameBits(raw_est.values, shared_est.values, "first values");
        expectFitsBitwise(raw_first, shared_first);

        // Refit with one more observation.
        idx.push_back((idx.back() + 77) % 256);
        vals.push_back(40.0 * prior.front()[idx.back()]);
        LeoFit raw_refit, shared_refit;
        est.estimateMetric(space, prior, idx, vals, &ws, &raw_refit);
        est.estimateMetric(space, basis, idx, vals, nullptr,
                           &shared_refit);
        expectFitsBitwise(raw_refit, shared_refit);

        // fitMetric takes the same path.
        expectFitsBitwise(est.fitMetric(prior, idx, vals),
                          est.fitMetric(basis, idx, vals, &ws));
    }
}

/**
 * A fit shares its prior basis and keeps only s-dimensional factors:
 * at n = 1024 no member it owns has n columns (the prediction is its
 * only n-vector), so a q x n basis cannot creep back in. The basis it
 * materializes leads with the shared prior rows, bit for bit.
 */
TEST(PriorBasis, FitHoldsNoConfigurationLengthMatrix)
{
    const std::size_t n = 1024;
    auto prior = makePrior(25, n, 25, 361);
    std::vector<std::size_t> idx;
    Vector vals;
    makeObservations(prior, 20, 363, idx, vals);
    const LeoEstimator est(gridOptions());
    const auto basis = std::make_shared<const estimators::PriorBasis>(prior);
    const LeoFit first = est.fitMetric(basis, idx, vals);
    const std::set<std::size_t> first_units(idx.begin(), idx.end());
    idx.push_back((idx.front() + 500) % n);
    vals.push_back(40.0 * prior.front()[idx.back()]);
    const LeoFit refit = est.fitMetric(basis, idx, vals);
    const std::set<std::size_t> refit_units(idx.begin(), idx.end());
    for (const auto &[fit, distinct] :
         {std::pair{&first, first_units.size()},
          std::pair{&refit, refit_units.size()}}) {
        EXPECT_EQ(fit->prior, basis);
        ASSERT_EQ(fit->prediction.size(), n);
        ASSERT_GT(fit->rank(), basis->rank());
        const Matrix q = fit->basis();
        for (std::size_t k = 0; k < basis->rank(); ++k)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_EQ(bitsOf(q.at(k, j)),
                          bitsOf(basis->rows().at(k, j)));
        for (const Matrix *m : {&fit->kept.w, &fit->kept.l, &fit->coeff,
                                &fit->varCore}) {
            EXPECT_LT(m->rows(), n);
            EXPECT_LT(m->cols(), n);
        }
        EXPECT_EQ(fit->kept.w.rows(), fit->kept.units.size());
        EXPECT_EQ(fit->kept.w.cols(), basis->rank());
        EXPECT_LE(fit->kept.units.size(), distinct);
    }
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
    EXPECT_EQ(fl.rank(), 10u); // e_17 dropped
    EXPECT_EQ(fl.kept.units, (std::vector<std::size_t>{40, 90}));
    EXPECT_LT(orthonormalityError(fl.basis()), 1e-12);
    ASSERT_TRUE(fl.prediction.allFinite());
    const support::OracleFit fd = oracleFit(prior, idx, vals);
    EXPECT_LT(relL2(fd.prediction, fl.prediction), 1e-6);
    // e_17 lies in span(Q) through the prior block alone, which the
    // closed-form observed-noise term relies on.
    EXPECT_EQ(fl.iterations, fd.iterations);
    EXPECT_NEAR(fl.sigma2, fd.sigma2, 1e-6 * fd.sigma2 + 1e-12);

    // A prior spanning all of R^n leaves no room for any unit.
    auto full = makePrior(10, 8, 8, 333);
    const LeoFit ff = lowrank.fitMetric(full, {1, 5, 6},
                                        Vector{9.0, 11.0, 10.0});
    EXPECT_EQ(ff.rank(), 8u);
    EXPECT_TRUE(ff.kept.units.empty());
    EXPECT_LT(orthonormalityError(ff.basis()), 1e-12);
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
    EXPECT_EQ(fl.rank(), 8u + 3u);
    EXPECT_LT(orthonormalityError(fl.basis()), 1e-12);
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
    const auto a =
        est.estimateMetric(space, prior, idx, vals, nullptr, &fwd);
    const auto b = est.estimateMetric(space, prior, rev_idx, rev_vals,
                                      nullptr, &rev);
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

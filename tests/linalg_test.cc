/**
 * @file
 * Unit tests for the dense linear-algebra substrate.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/cholesky.hh"
#include "linalg/error.hh"
#include "linalg/least_squares.hh"
#include "linalg/matrix.hh"
#include "linalg/poly_features.hh"
#include "linalg/serialize.hh"
#include "linalg/simplex.hh"
#include "linalg/vector.hh"
#include "linalg/workspace.hh"
#include "stats/rng.hh"

using namespace leo;
using linalg::Matrix;
using linalg::Vector;

// ---------------------------------------------------------------- Vector

TEST(Vector, ConstructAndFill)
{
    Vector v(4, 2.5);
    EXPECT_EQ(v.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(v[i], 2.5);
    v.fill(-1.0);
    EXPECT_DOUBLE_EQ(v.sum(), -4.0);
}

TEST(Vector, InitializerList)
{
    Vector v{1.0, 2.0, 3.0};
    EXPECT_EQ(v.size(), 3u);
    EXPECT_DOUBLE_EQ(v(1), 2.0);
}

TEST(Vector, BoundsChecking)
{
    Vector v(3);
    EXPECT_THROW(v(3), FatalError);
    const Vector &cv = v;
    EXPECT_THROW(cv(7), FatalError);
}

TEST(Vector, Arithmetic)
{
    Vector a{1.0, 2.0, 3.0};
    Vector b{4.0, 5.0, 6.0};
    Vector c = a + b;
    EXPECT_DOUBLE_EQ(c[0], 5.0);
    EXPECT_DOUBLE_EQ(c[2], 9.0);
    c -= a;
    EXPECT_DOUBLE_EQ(c[1], 5.0);
    Vector d = 2.0 * a;
    EXPECT_DOUBLE_EQ(d[2], 6.0);
    d /= 2.0;
    EXPECT_DOUBLE_EQ(d[2], 3.0);
    EXPECT_THROW(d /= 0.0, FatalError);
}

TEST(Vector, DimensionMismatchThrows)
{
    Vector a(3), b(4);
    EXPECT_THROW(a += b, FatalError);
    EXPECT_THROW(dot(a, b), FatalError);
    EXPECT_THROW(a.cwiseProduct(b), FatalError);
}

TEST(Vector, Statistics)
{
    Vector v{3.0, -1.0, 4.0, 0.0};
    EXPECT_DOUBLE_EQ(v.sum(), 6.0);
    EXPECT_DOUBLE_EQ(v.mean(), 1.5);
    EXPECT_DOUBLE_EQ(v.min(), -1.0);
    EXPECT_DOUBLE_EQ(v.max(), 4.0);
    EXPECT_EQ(v.argmax(), 2u);
    EXPECT_EQ(v.argmin(), 1u);
    EXPECT_DOUBLE_EQ(v.squaredNorm(), 9.0 + 1.0 + 16.0);
    EXPECT_DOUBLE_EQ(v.norm(), std::sqrt(26.0));
}

TEST(Vector, DotAndGather)
{
    Vector a{1.0, 2.0, 3.0};
    Vector b{-1.0, 0.5, 2.0};
    EXPECT_DOUBLE_EQ(dot(a, b), -1.0 + 1.0 + 6.0);
    Vector g = a.gather({2, 0});
    ASSERT_EQ(g.size(), 2u);
    EXPECT_DOUBLE_EQ(g[0], 3.0);
    EXPECT_DOUBLE_EQ(g[1], 1.0);
    EXPECT_THROW(a.gather({5}), FatalError);
}

TEST(Vector, AllFinite)
{
    Vector v{1.0, 2.0};
    EXPECT_TRUE(v.allFinite());
    v[1] = std::nan("");
    EXPECT_FALSE(v.allFinite());
}

// ---------------------------------------------------------------- Matrix

TEST(Matrix, IdentityAndDiag)
{
    Matrix i = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
    EXPECT_DOUBLE_EQ(i.trace(), 3.0);

    Matrix d = Matrix::diag(Vector{2.0, 3.0});
    EXPECT_DOUBLE_EQ(d(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(d(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 0.0);
}

TEST(Matrix, OuterProduct)
{
    Matrix o = Matrix::outer(Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
    EXPECT_EQ(o.rows(), 2u);
    EXPECT_EQ(o.cols(), 3u);
    EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
}

TEST(Matrix, MultiplyMatrixVector)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Vector x{1.0, -1.0};
    Vector y = a * x;
    EXPECT_DOUBLE_EQ(y[0], -1.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Matrix, MultiplyMatrixMatrix)
{
    Matrix a{{1.0, 2.0}, {3.0, 4.0}};
    Matrix b{{0.0, 1.0}, {1.0, 0.0}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, TransposeTraceFrobenius)
{
    Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
    Matrix t = a.transpose();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
    EXPECT_NEAR(a.frobeniusNorm(), std::sqrt(91.0), 1e-12);
    EXPECT_THROW(a.trace(), FatalError);
}

TEST(Matrix, SymmetryHelpers)
{
    Matrix a{{1.0, 2.0}, {2.0000000001, 3.0}};
    EXPECT_TRUE(a.isSymmetric(1e-6));
    EXPECT_FALSE(a.isSymmetric(1e-12));
    a.symmetrize();
    EXPECT_DOUBLE_EQ(a(0, 1), a(1, 0));
}

TEST(Matrix, GatherSubmatrix)
{
    Matrix a{{1., 2., 3.}, {4., 5., 6.}, {7., 8., 9.}};
    Matrix s = a.gather({0, 2});
    EXPECT_EQ(s.rows(), 2u);
    EXPECT_DOUBLE_EQ(s(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(s(0, 1), 3.0);
    EXPECT_DOUBLE_EQ(s(1, 1), 9.0);
    Matrix r = a.gather({1}, {0, 1, 2});
    EXPECT_EQ(r.rows(), 1u);
    EXPECT_DOUBLE_EQ(r(0, 2), 6.0);
}

TEST(Matrix, RowColAccess)
{
    Matrix a{{1., 2.}, {3., 4.}};
    Vector r = a.row(1);
    EXPECT_DOUBLE_EQ(r[0], 3.0);
    Vector c = a.col(0);
    EXPECT_DOUBLE_EQ(c[1], 3.0);
    a.setRow(0, Vector{9.0, 8.0});
    EXPECT_DOUBLE_EQ(a(0, 1), 8.0);
    a.setCol(1, Vector{7.0, 6.0});
    EXPECT_DOUBLE_EQ(a(1, 1), 6.0);
}

// -------------------------------------------------------------- Cholesky

TEST(Cholesky, FactorizeAndSolve)
{
    Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    linalg::Cholesky chol(a);
    EXPECT_DOUBLE_EQ(chol.jitterUsed(), 0.0);

    Vector b{2.0, 1.0};
    Vector x = chol.solve(b);
    // Verify A x = b.
    Vector ax = a * x;
    EXPECT_NEAR(ax[0], b[0], 1e-12);
    EXPECT_NEAR(ax[1], b[1], 1e-12);
}

TEST(Cholesky, InverseMatchesSolve)
{
    stats::Rng rng(7);
    const std::size_t n = 12;
    // Random SPD: A = B B' + n I.
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.gaussian();
    Matrix a = b * b.transpose();
    a.addToDiagonal(static_cast<double>(n));

    linalg::Cholesky chol(a);
    Matrix inv = chol.inverse();
    Matrix prod = a * inv;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Cholesky, MatrixSolve)
{
    Matrix a{{5.0, 1.0}, {1.0, 3.0}};
    Matrix rhs{{1.0, 0.0}, {0.0, 1.0}};
    linalg::Cholesky chol(a);
    Matrix x = chol.solve(rhs);
    Matrix prod = a * x;
    EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
}

TEST(Cholesky, LogDet)
{
    Matrix a{{2.0, 0.0}, {0.0, 8.0}};
    linalg::Cholesky chol(a);
    EXPECT_NEAR(chol.logDet(), std::log(16.0), 1e-12);
}

TEST(Cholesky, RejectsNonPositiveDefinite)
{
    Matrix a{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues 3, -1
    EXPECT_THROW(linalg::Cholesky(a, 1e-6), FatalError);
}

TEST(Cholesky, JitterRecoversBorderline)
{
    // Singular PSD matrix; jitter should rescue it.
    Matrix a{{1.0, 1.0}, {1.0, 1.0}};
    linalg::Cholesky chol(a, 1e-4);
    EXPECT_GT(chol.jitterUsed(), 0.0);
}

TEST(Cholesky, RejectsAsymmetric)
{
    Matrix a{{1.0, 0.5}, {0.0, 1.0}};
    EXPECT_THROW(linalg::Cholesky{a}, FatalError);
}

// ------------------------------------------------ Rank-1 up/downdates

namespace
{

/** Random SPD matrix A = B B' + n I for the rank-1 tests. */
Matrix
randomSpd(std::size_t n, unsigned seed)
{
    stats::Rng rng(seed);
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.gaussian();
    Matrix a = b * b.transpose();
    a.addToDiagonal(static_cast<double>(n));
    return a;
}

/** Max |L1 - L2| over the lower triangle. */
double
lowerMaxDiff(const Matrix &l1, const Matrix &l2)
{
    double worst = 0.0;
    for (std::size_t i = 0; i < l1.rows(); ++i)
        for (std::size_t j = 0; j <= i; ++j)
            worst = std::max(worst,
                             std::abs(l1.at(i, j) - l2.at(i, j)));
    return worst;
}

} // namespace

TEST(CholeskyRank1, UpdateMatchesRefactorization)
{
    const std::size_t n = 16;
    Matrix a = randomSpd(n, 11);
    stats::Rng rng(12);
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.gaussian();

    linalg::Cholesky chol(a);
    ASSERT_EQ(chol.updateRank1(x), linalg::UpdateStatus::Ok);

    Matrix aup = a;
    aup.outerAddInto(1.0, x, x);
    linalg::Cholesky ref(aup);
    EXPECT_LT(lowerMaxDiff(chol.factor(), ref.factor()), 1e-10);
    EXPECT_NEAR(chol.logDet(), ref.logDet(), 1e-10);
}

TEST(CholeskyRank1, UpdateDowndateRoundTrips)
{
    const std::size_t n = 12;
    Matrix a = randomSpd(n, 21);
    stats::Rng rng(22);
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.gaussian();

    linalg::Cholesky chol(a);
    const Matrix before = chol.factor();
    ASSERT_EQ(chol.updateRank1(x), linalg::UpdateStatus::Ok);
    ASSERT_EQ(chol.downdateRank1(x), linalg::UpdateStatus::Ok);
    EXPECT_LT(lowerMaxDiff(chol.factor(), before), 1e-10);
}

TEST(CholeskyRank1, RandomSequenceTracksRefactorization)
{
    // A window of adds and evictions, the way the incremental
    // refitter drives the factor: every prefix must stay close to a
    // from-scratch factorization of the running matrix.
    const std::size_t n = 8;
    Matrix a = randomSpd(n, 31);
    linalg::Cholesky chol(a);
    stats::Rng rng(32);

    std::vector<Vector> window;
    for (int step = 0; step < 40; ++step) {
        Vector x(n);
        for (std::size_t i = 0; i < n; ++i)
            x[i] = rng.gaussian();
        ASSERT_EQ(chol.updateRank1(x), linalg::UpdateStatus::Ok);
        a.outerAddInto(1.0, x, x);
        window.push_back(x);
        if (window.size() > 6) {
            const Vector old = window.front();
            window.erase(window.begin());
            ASSERT_EQ(chol.downdateRank1(old),
                      linalg::UpdateStatus::Ok);
            a.outerAddInto(-1.0, old, old);
        }
    }
    linalg::Cholesky ref(a);
    EXPECT_LT(lowerMaxDiff(chol.factor(), ref.factor()), 1e-8);
}

TEST(CholeskyRank1, DowndateNearSingularityFailsGracefully)
{
    // Downdating A by one of its own "columns" scaled to push an
    // eigenvalue through zero must refuse without touching the
    // factor and without manufacturing NaNs.
    Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    linalg::Cholesky chol(a);
    const Matrix before = chol.factor();

    // x x' with x = (2, 1)' makes A - x x' exactly singular at the
    // (0,0) pivot; scale slightly past it to be infeasible.
    Vector x{2.0000001, 1.0};
    EXPECT_EQ(chol.downdateRank1(x),
              linalg::UpdateStatus::NotPositiveDefinite);
    EXPECT_EQ(lowerMaxDiff(chol.factor(), before), 0.0);
    EXPECT_TRUE(chol.factor().allFinite());

    // The factor is still usable after the refusal.
    Vector b{1.0, 1.0};
    Vector sol = b;
    chol.solveInPlace(sol);
    Vector ab = a * sol;
    EXPECT_NEAR(ab[0], b[0], 1e-12);
    EXPECT_NEAR(ab[1], b[1], 1e-12);
}

TEST(CholeskyRank1, DowndateExactBoundaryRefusedByTolerance)
{
    // rho2 lands at ~0 for the exactly singular downdate; the default
    // tolerance must classify it as infeasible, not sqrt(-eps).
    Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    linalg::Cholesky chol(a);
    Vector x{2.0, 1.0};
    EXPECT_EQ(chol.downdateRank1(x),
              linalg::UpdateStatus::NotPositiveDefinite);
    EXPECT_TRUE(chol.factor().allFinite());
}

TEST(CholeskyRank1, NonFiniteVectorsRejected)
{
    Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    linalg::Cholesky chol(a);
    const Matrix before = chol.factor();
    Vector x{1.0, std::numeric_limits<double>::quiet_NaN()};
    EXPECT_EQ(chol.updateRank1(x),
              linalg::UpdateStatus::NotPositiveDefinite);
    EXPECT_EQ(chol.downdateRank1(x),
              linalg::UpdateStatus::NotPositiveDefinite);
    EXPECT_EQ(lowerMaxDiff(chol.factor(), before), 0.0);
}

// --------------------------------------------------------- Least squares

TEST(LeastSquares, ExactFit)
{
    // y = 2 + 3x on 4 points, quadratic-free.
    Matrix x(4, 2);
    Vector y(4);
    for (std::size_t i = 0; i < 4; ++i) {
        const double xv = static_cast<double>(i);
        x(i, 0) = 1.0;
        x(i, 1) = xv;
        y[i] = 2.0 + 3.0 * xv;
    }
    auto fit = linalg::leastSquares(x, y);
    EXPECT_TRUE(fit.fullRank);
    EXPECT_EQ(fit.rank, 2u);
    EXPECT_NEAR(fit.coefficients[0], 2.0, 1e-10);
    EXPECT_NEAR(fit.coefficients[1], 3.0, 1e-10);
    EXPECT_NEAR(fit.residualSumSquares, 0.0, 1e-18);
}

TEST(LeastSquares, OverdeterminedNoisy)
{
    stats::Rng rng(3);
    const std::size_t m = 200;
    Matrix x(m, 3);
    Vector y(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double a = rng.uniform(-1, 1);
        const double b = rng.uniform(-1, 1);
        x(i, 0) = 1.0;
        x(i, 1) = a;
        x(i, 2) = b;
        y[i] = 0.5 - 2.0 * a + 4.0 * b + rng.gaussian(0.0, 0.01);
    }
    auto fit = linalg::leastSquares(x, y);
    EXPECT_TRUE(fit.fullRank);
    EXPECT_NEAR(fit.coefficients[0], 0.5, 0.01);
    EXPECT_NEAR(fit.coefficients[1], -2.0, 0.01);
    EXPECT_NEAR(fit.coefficients[2], 4.0, 0.01);
}

TEST(LeastSquares, DetectsRankDeficiency)
{
    // Fewer rows than columns: necessarily rank deficient.
    Matrix x(2, 3);
    x(0, 0) = 1.0;
    x(0, 1) = 2.0;
    x(0, 2) = 3.0;
    x(1, 0) = 4.0;
    x(1, 1) = 5.0;
    x(1, 2) = 6.0;
    Vector y{1.0, 2.0};
    auto fit = linalg::leastSquares(x, y);
    EXPECT_FALSE(fit.fullRank);
    EXPECT_LE(fit.rank, 2u);
}

TEST(LeastSquares, DuplicateColumnRankDeficient)
{
    Matrix x(5, 2);
    Vector y(5);
    for (std::size_t i = 0; i < 5; ++i) {
        x(i, 0) = static_cast<double>(i);
        x(i, 1) = static_cast<double>(i); // duplicate
        y[i] = static_cast<double>(i);
    }
    auto fit = linalg::leastSquares(x, y);
    EXPECT_FALSE(fit.fullRank);
}

TEST(Ridge, ShrinksTowardZero)
{
    Matrix x(3, 2);
    x(0, 0) = 1.0;
    x(1, 1) = 1.0;
    x(2, 0) = 1.0;
    x(2, 1) = 1.0;
    Vector y{1.0, 1.0, 2.0};
    Vector w_small = linalg::ridgeRegression(x, y, 1e-8);
    Vector w_big = linalg::ridgeRegression(x, y, 100.0);
    EXPECT_GT(w_small.norm(), w_big.norm());
    EXPECT_THROW(linalg::ridgeRegression(x, y, 0.0), FatalError);
}

// ------------------------------------------------------ Poly features

TEST(PolyFeatures, CountMatchesBinomial)
{
    // C(d + k, k) features for d inputs, degree k.
    linalg::PolynomialFeatures f42(4, 2);
    EXPECT_EQ(f42.numFeatures(), 15u); // the Fig. 12 threshold
    linalg::PolynomialFeatures f23(2, 3);
    EXPECT_EQ(f23.numFeatures(), 10u);
    linalg::PolynomialFeatures f11(1, 1);
    EXPECT_EQ(f11.numFeatures(), 2u);
}

TEST(PolyFeatures, ExpandValues)
{
    linalg::PolynomialFeatures f(2, 2);
    Vector x{2.0, 3.0};
    Vector e = f.expand(x);
    ASSERT_EQ(e.size(), 6u);
    // Sorted by total degree: 1, x, y, x^2, xy, y^2.
    EXPECT_DOUBLE_EQ(e[0], 1.0);
    double sum = 0.0;
    for (double v : e)
        sum += v;
    // 1 + 2 + 3 + 4 + 6 + 9 = 25.
    EXPECT_DOUBLE_EQ(sum, 25.0);
}

TEST(PolyFeatures, DesignMatrixShape)
{
    linalg::PolynomialFeatures f(3, 2);
    std::vector<Vector> rows{Vector{1., 2., 3.}, Vector{0., 0., 0.}};
    Matrix d = f.designMatrix(rows);
    EXPECT_EQ(d.rows(), 2u);
    EXPECT_EQ(d.cols(), f.numFeatures());
    // The all-zero point has only the constant feature.
    double row1 = 0.0;
    for (std::size_t c = 0; c < d.cols(); ++c)
        row1 += d(1, c);
    EXPECT_DOUBLE_EQ(row1, 1.0);
}

// ------------------------------------------------------------- Simplex

TEST(Simplex, SimpleMinimization)
{
    // min x + y s.t. x + 2y >= 4 (as -x - 2y <= -4), x,y >= 0.
    linalg::LinearProgram lp(2);
    lp.setObjective(Vector{1.0, 1.0});
    lp.addInequality(Vector{-1.0, -2.0}, -4.0);
    auto sol = lp.solve();
    ASSERT_EQ(sol.status, linalg::LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 2.0, 1e-8); // x=0, y=2
}

TEST(Simplex, EqualityConstraint)
{
    // min 2x + y s.t. x + y = 3, x,y >= 0 -> x=0, y=3, obj 3.
    linalg::LinearProgram lp(2);
    lp.setObjective(Vector{2.0, 1.0});
    lp.addEquality(Vector{1.0, 1.0}, 3.0);
    auto sol = lp.solve();
    ASSERT_EQ(sol.status, linalg::LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 3.0, 1e-8);
    EXPECT_NEAR(sol.x[1], 3.0, 1e-8);
}

TEST(Simplex, DetectsInfeasible)
{
    // x = 5 and x <= 1 cannot hold.
    linalg::LinearProgram lp(1);
    lp.setObjective(Vector{1.0});
    lp.addEquality(Vector{1.0}, 5.0);
    lp.addInequality(Vector{1.0}, 1.0);
    auto sol = lp.solve();
    EXPECT_EQ(sol.status, linalg::LpStatus::Infeasible);
}

TEST(Simplex, DetectsUnbounded)
{
    // min -x s.t. x >= 0 only.
    linalg::LinearProgram lp(1);
    lp.setObjective(Vector{-1.0});
    lp.addInequality(Vector{-1.0}, 0.0); // -x <= 0, vacuous
    auto sol = lp.solve();
    EXPECT_EQ(sol.status, linalg::LpStatus::Unbounded);
}

TEST(Simplex, EnergyLpShape)
{
    // A miniature Equation (1): three configs, rates 1/2/4,
    // powers 1/3/10; W = 2, T = 1. Pure config 1 (t = 1) meets the
    // work exactly with energy 3; every feasible mix costs more.
    linalg::LinearProgram lp(3);
    lp.setObjective(Vector{1.0, 3.0, 10.0});
    lp.addEquality(Vector{1.0, 2.0, 4.0}, 2.0);
    lp.addInequality(Vector{1.0, 1.0, 1.0}, 1.0);
    auto sol = lp.solve();
    ASSERT_EQ(sol.status, linalg::LpStatus::Optimal);
    EXPECT_NEAR(sol.objective, 3.0, 1e-8);
    EXPECT_NEAR(sol.x[1], 1.0, 1e-8);
}

// ------------------------------------------- Blocked kernel properties

namespace
{

/** Naive i,j,k reference product — the shared accumulation order
 *  (inner dimension folded in increasing k) the blocked kernels
 *  must reproduce bit for bit. */
Matrix
naiveMultiply(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.cols(); ++k)
                acc += a.at(i, k) * b.at(k, j);
            out.at(i, j) = acc;
        }
    }
    return out;
}

Matrix
randomMatrix(std::size_t rows, std::size_t cols, stats::Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            // Wide dynamic range so reordered accumulation would
            // actually round differently.
            m.at(r, c) = rng.gaussian() * std::pow(10.0, rng.uniform(-6.0, 6.0));
    return m;
}

void
expectBitwiseEqual(const Matrix &a, const Matrix &b,
                   const std::string &what)
{
    ASSERT_EQ(a.rows(), b.rows()) << what;
    ASSERT_EQ(a.cols(), b.cols()) << what;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            ASSERT_EQ(a.at(r, c), b.at(r, c))
                << what << " differs at (" << r << "," << c << ")";
}

/** Awkward (m, k, n) shapes: degenerate edges, primes, and dims
 *  straddling the 64-wide tile of the blocked kernels. */
const std::size_t kShapes[][3] = {
    {1, 1, 1},   {1, 7, 1},   {1, 5, 9},    {9, 1, 5},
    {3, 17, 1},  {7, 11, 13}, {31, 37, 29}, {61, 64, 67},
    {64, 64, 64}, {65, 63, 64}, {65, 129, 66}, {128, 65, 2},
};

} // namespace

TEST(BlockedKernels, MultiplyMatchesNaiveToZeroUlp)
{
    stats::Rng rng(8881);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        const Matrix b = randomMatrix(shape[1], shape[2], rng);
        expectBitwiseEqual(Matrix::multiply(a, b), naiveMultiply(a, b),
                           "multiply " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]) + "x" +
                               std::to_string(shape[2]));
    }
}

TEST(BlockedKernels, OperatorForwardsToBlockedMultiply)
{
    stats::Rng rng(17);
    const Matrix a = randomMatrix(33, 65, rng);
    const Matrix b = randomMatrix(65, 31, rng);
    expectBitwiseEqual(a * b, Matrix::multiply(a, b), "operator*");
}

TEST(BlockedKernels, MultiplyTransposedMatchesNaiveToZeroUlp)
{
    stats::Rng rng(4242);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        const Matrix bt = randomMatrix(shape[2], shape[1], rng);
        expectBitwiseEqual(
            Matrix::multiplyTransposed(a, bt),
            naiveMultiply(a, bt.transpose()),
            "multiplyTransposed " + std::to_string(shape[0]) + "x" +
                std::to_string(shape[1]) + "x" +
                std::to_string(shape[2]));
    }
}

TEST(BlockedKernels, SyrkMatchesNaiveToZeroUlp)
{
    stats::Rng rng(9091);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        const Matrix s = Matrix::syrk(a);
        expectBitwiseEqual(s, naiveMultiply(a, a.transpose()),
                           "syrk " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
        EXPECT_TRUE(s.isSymmetric(0.0));
    }
}

TEST(BlockedKernels, GramMatchesNaiveToZeroUlp)
{
    stats::Rng rng(7777);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        const Matrix g = Matrix::gram(a);
        expectBitwiseEqual(g, naiveMultiply(a.transpose(), a),
                           "gram " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
        EXPECT_TRUE(g.isSymmetric(0.0));
    }
}

TEST(BlockedKernels, GramIsOrderedSumOfRowOuterProducts)
{
    // The EM M-step contract: gram(R) where rows of R are residuals
    // r_i equals sum_i outer(r_i, r_i) accumulated in row order —
    // exactly, not approximately.
    stats::Rng rng(555);
    const Matrix r = randomMatrix(13, 37, rng);
    Matrix expect(37, 37, 0.0);
    for (std::size_t i = 0; i < r.rows(); ++i) {
        const Vector row = r.row(i);
        expect += Matrix::outer(row, row);
    }
    expectBitwiseEqual(Matrix::gram(r), expect, "gram-as-outer-sum");
}

// ------------------------------------------------- Into-variant kernels
//
// The allocation-free EM loop uses into-buffer variants of the
// allocating kernels; each variant must be exact — 0 ULP — so the
// two are interchangeable wherever a caller picks one.
// Every test below also re-runs into the *same dirty buffers* to
// prove stale workspace contents cannot leak into a result.

namespace
{

/** Random SPD matrix a = b b' + n I with wide dynamic range. */
Matrix
randomSpd(std::size_t n, stats::Rng &rng)
{
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b.at(i, j) = rng.gaussian();
    Matrix a = Matrix::syrk(b);
    a.addToDiagonal(static_cast<double>(n));
    return a;
}

/** The EM-relevant dimensions: trivial, prime, one tile, many tiles. */
const std::size_t kSpdSizes[] = {1, 7, 64, 130};

} // namespace

TEST(Workspace, ReusesBuffersByKeyAndShape)
{
    linalg::Workspace ws;
    Matrix &a = ws.matrix("a", 3, 4);
    a.at(1, 2) = 42.0;
    EXPECT_EQ(ws.allocations(), 1u);

    // Same key + shape: same buffer, contents untouched.
    Matrix &a2 = ws.matrix("a", 3, 4);
    EXPECT_EQ(&a, &a2);
    EXPECT_DOUBLE_EQ(a2.at(1, 2), 42.0);
    EXPECT_EQ(ws.allocations(), 1u);

    // Shape change on the same key counts as a fresh allocation.
    Matrix &a3 = ws.matrix("a", 5, 5);
    EXPECT_EQ(a3.rows(), 5u);
    EXPECT_EQ(ws.allocations(), 2u);

    ws.vector("v", 9);
    EXPECT_EQ(ws.buffers(), 2u);
    EXPECT_EQ(ws.allocations(), 3u);

    Vector &v = ws.vector("v", 9);
    EXPECT_EQ(v.size(), 9u);
    EXPECT_EQ(ws.allocations(), 3u);
}

TEST(IntoKernels, MultiplyIntoMatchesMultiplyToZeroUlp)
{
    stats::Rng rng(3111);
    linalg::Workspace ws;
    Matrix &out = ws.matrix("out", 1, 1);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        const Matrix b = randomMatrix(shape[1], shape[2], rng);
        // Reuse the same (dirty, reshaped) buffer every iteration.
        Matrix::multiplyInto(out, a, b);
        expectBitwiseEqual(out, Matrix::multiply(a, b),
                           "multiplyInto " + std::to_string(shape[0]) +
                               "x" + std::to_string(shape[1]) + "x" +
                               std::to_string(shape[2]));
    }
}

TEST(IntoKernels, SyrkIntoAndGramIntoMatchToZeroUlp)
{
    stats::Rng rng(3222);
    Matrix s_out, g_out;
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        Matrix::syrkInto(s_out, a);
        expectBitwiseEqual(s_out, Matrix::syrk(a),
                           "syrkInto " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
        Matrix::gramInto(g_out, a);
        expectBitwiseEqual(g_out, Matrix::gram(a),
                           "gramInto " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
    }
}

TEST(IntoKernels, GatherTransposeAndAxpyVariantsMatchToZeroUlp)
{
    stats::Rng rng(3333);
    const Matrix a = randomMatrix(67, 67, rng);
    const std::vector<std::size_t> idx = {0, 3, 5, 17, 64, 66};

    Matrix out;
    const Matrix sub = a.gather(idx);
    ASSERT_EQ(sub.rows(), idx.size());
    for (std::size_t r = 0; r < idx.size(); ++r)
        for (std::size_t c = 0; c < idx.size(); ++c)
            ASSERT_EQ(sub.at(r, c), a.at(idx[r], idx[c])) << "gather";

    a.transposeInto(out);
    expectBitwiseEqual(out, a.transpose(), "transposeInto");

    const Matrix b = randomMatrix(67, 67, rng);
    Matrix sum = a;
    sum.addScaled(-3.5, b);
    Matrix expect = a;
    expect += -3.5 * b;
    expectBitwiseEqual(sum, expect, "addScaled");

    Vector x(67), y(67);
    for (std::size_t i = 0; i < 67; ++i) {
        x[i] = rng.gaussian();
        y[i] = rng.gaussian();
    }
    sum = a;
    sum.outerAddInto(2.25, x, y);
    expect = a;
    expect += 2.25 * Matrix::outer(x, y);
    expectBitwiseEqual(sum, expect, "outerAddInto");

    Vector vs = x;
    vs.addScaled(0.75, y);
    const Vector vexpect = x + 0.75 * y;
    for (std::size_t i = 0; i < 67; ++i)
        ASSERT_EQ(vs[i], vexpect[i]) << "Vector::addScaled at " << i;
}

TEST(IntoKernels, SymmetricAxpyReadsOnlyLowerTriangle)
{
    stats::Rng rng(3444);
    for (std::size_t n : kSpdSizes) {
        const Matrix a = randomSpd(n, rng);
        // Poison the strict upper triangle: symmetry-aware consumers
        // must never read it.
        Matrix lower = a;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                lower.at(i, j) = std::nan("");

        Matrix sum = randomMatrix(n, n, rng);
        Matrix full_expect = sum;
        sum.addScaledSymmetric(-1.75, lower);
        full_expect += -1.75 * a;
        expectBitwiseEqual(sum, full_expect,
                           "addScaledSymmetric n=" + std::to_string(n));
    }
}

TEST(IntoKernels, FactorizeMatchesConstructorToZeroUlp)
{
    stats::Rng rng(3555);
    linalg::Cholesky incremental;
    for (std::size_t n : kSpdSizes) {
        const Matrix sigma = randomSpd(n, rng);
        const double added = 0.037;

        Matrix a = sigma;
        a.addToDiagonal(added);
        const linalg::Cholesky reference(a, 1e-6);

        // Reuses the factor storage left over from the previous
        // (different-sized) problem.
        incremental.reserve(n);
        incremental.factorize(sigma, added, 1e-6);
        expectBitwiseEqual(incremental.factor(), reference.factor(),
                           "factorize n=" + std::to_string(n));
        EXPECT_EQ(incremental.jitterUsed(), reference.jitterUsed());
    }
}

TEST(IntoKernels, FactorizeAppliesJitterScheduleLikeConstructor)
{
    // Singular PSD input: both paths must land on the same jitter.
    Matrix a{{1.0, 1.0}, {1.0, 1.0}};
    const linalg::Cholesky reference(a, 1e-4);
    linalg::Cholesky incremental;
    incremental.factorize(a, 0.0, 1e-4);
    EXPECT_EQ(incremental.jitterUsed(), reference.jitterUsed());
    expectBitwiseEqual(incremental.factor(), reference.factor(),
                       "jittered factor");
    // And an outright non-PSD input still fails.
    Matrix bad{{1.0, 2.0}, {2.0, 1.0}};
    EXPECT_THROW(incremental.factorize(bad, 0.0, 1e-6), FatalError);
}

TEST(IntoKernels, InverseIntoMatchesInverseToZeroUlp)
{
    stats::Rng rng(3666);
    linalg::Workspace ws;
    Matrix inv_buf;
    for (std::size_t n : kSpdSizes) {
        const Matrix a = randomSpd(n, rng);
        const linalg::Cholesky chol(a, 1e-6);
        const Matrix reference = chol.inverse();

        chol.inverseInto(inv_buf, ws, /*mirror=*/true);
        expectBitwiseEqual(inv_buf, reference,
                           "inverseInto n=" + std::to_string(n));

        // mirror = false must still produce the exact lower triangle
        // (the upper is unspecified).
        chol.inverseInto(inv_buf, ws, /*mirror=*/false);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = 0; j <= i; ++j)
                ASSERT_EQ(inv_buf.at(i, j), reference.at(i, j))
                    << "lower-only inverseInto n=" << n;
    }
}

TEST(IntoKernels, InPlaceSolvesMatchAllocatingSolvesToZeroUlp)
{
    stats::Rng rng(3777);
    for (std::size_t n : kSpdSizes) {
        const Matrix a = randomSpd(n, rng);
        const linalg::Cholesky chol(a, 1e-6);

        Vector b(n);
        for (std::size_t i = 0; i < n; ++i)
            b[i] = rng.gaussian();

        Vector x = b;
        chol.solveInPlace(x);
        const Vector expect = chol.solve(b);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(x[i], expect[i]) << "solveInPlace n=" << n;

        Vector y = b;
        chol.solveLowerInPlace(y);
        const Vector lexpect = chol.solveLower(b);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(y[i], lexpect[i]) << "solveLowerInPlace n=" << n;

        const Matrix rhs = randomMatrix(n, 3, rng);
        Matrix xm = rhs;
        chol.solveInPlace(xm);
        expectBitwiseEqual(xm, chol.solve(rhs),
                           "matrix solveInPlace n=" + std::to_string(n));
    }
}

TEST(IntoKernels, LargeProblemMatchesNaiveKernelsToZeroUlp)
{
    // One EM-scale problem (n ~ 1024, off the tile grid) exercising
    // the full factor -> invert pipeline against the naive kernels.
    stats::Rng rng(3888);
    const std::size_t n = 1030;
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b.at(i, j) = rng.gaussian();
    Matrix a = Matrix::syrk(b);
    a.addToDiagonal(static_cast<double>(n));

    const linalg::Cholesky reference(a, 1e-6);
    linalg::Cholesky blocked;
    blocked.reserve(n);
    blocked.factorize(a, 0.0, 1e-6);
    expectBitwiseEqual(blocked.factor(), reference.factor(),
                       "blocked factor n=1030");

    linalg::Workspace ws;
    Matrix inv_buf;
    blocked.inverseInto(inv_buf, ws, /*mirror=*/true);
    expectBitwiseEqual(inv_buf, reference.inverse(),
                       "inverseInto n=1030");
}

// ------------------------------------------------------- Byte codec

namespace
{

/** Little-endian bytes of a 64-bit word. */
std::string
le64(std::uint64_t v)
{
    std::string s;
    for (int i = 0; i < 8; ++i)
        s.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    return s;
}

} // namespace

/**
 * The wire format is fixed: little-endian integers, doubles as their
 * IEEE-754 bits (signed zero and NaN payload included), containers
 * behind a u64 count. Every primitive writes exactly these bytes and
 * reads them back bit for bit.
 */
TEST(ByteCodec, GoldenBytesRoundTripBitwise)
{
    const double nan_payload =
        std::bit_cast<double>(std::uint64_t{0x7ff8000000000123});
    Matrix m(2, 3);
    for (std::size_t i = 0; i < 6; ++i)
        m.data()[i] = static_cast<double>(i) - 2.5;
    const std::vector<std::size_t> idx{7, (std::size_t{1} << 40) + 1};

    linalg::ByteWriter w;
    w.u8(0xab);
    w.u32(0x01020304u);
    w.u64(0x0102030405060708ull);
    w.f64(1.0);
    w.f64(-0.0);
    w.f64(nan_payload);
    w.str("hi");
    w.vec(Vector{1.0, -2.5});
    w.mat(m);
    w.indexVec(idx);
    w.vec(Vector{});

    std::string golden;
    golden += '\xab';
    golden += std::string("\x04\x03\x02\x01", 4);
    golden += le64(0x0102030405060708ull);
    golden += le64(0x3ff0000000000000ull);
    golden += le64(0x8000000000000000ull);
    golden += le64(0x7ff8000000000123ull);
    golden += le64(2) + "hi";
    golden += le64(2) + le64(0x3ff0000000000000ull) +
              le64(0xc004000000000000ull);
    golden += le64(2) + le64(3);
    for (std::size_t i = 0; i < 6; ++i)
        golden += le64(std::bit_cast<std::uint64_t>(m.data()[i]));
    golden += le64(2) + le64(7) + le64((std::uint64_t{1} << 40) + 1);
    golden += le64(0);
    ASSERT_EQ(w.bytes(), golden);

    linalg::ByteReader r(golden);
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0x01020304u);
    EXPECT_EQ(r.u64(), 0x0102030405060708ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              0x3ff0000000000000ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              0x8000000000000000ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              0x7ff8000000000123ull);
    EXPECT_EQ(r.str(), "hi");
    const Vector v = r.vec();
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v[0]), 0x3ff0000000000000ull);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v[1]), 0xc004000000000000ull);
    const Matrix back = r.mat();
    ASSERT_EQ(back.rows(), 2u);
    ASSERT_EQ(back.cols(), 3u);
    for (std::size_t i = 0; i < 6; ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.data()[i]),
                  std::bit_cast<std::uint64_t>(m.data()[i]));
    EXPECT_EQ(r.indexVec(), idx);
    EXPECT_TRUE(r.vec().empty());
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.atEnd());
}

/**
 * A count larger than the bytes left fails the reader before any
 * allocation: a count of 2^61 elements would throw bad_alloc if the
 * reader sized a container from it. Every later read returns zero.
 */
TEST(ByteCodec, OversizedCountFailsWithoutAllocating)
{
    const std::uint64_t huge = std::uint64_t{1} << 61;
    const std::string payload = le64(0x3ff0000000000000ull);
    const auto expectFailed = [](linalg::ByteReader &r) {
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.u64(), 0u);
        EXPECT_EQ(r.f64(), 0.0);
        EXPECT_TRUE(r.str().empty());
    };
    {
        const std::string blob = le64(huge) + payload;
        linalg::ByteReader r(blob);
        EXPECT_TRUE(r.vec().empty());
        expectFailed(r);
    }
    {
        const std::string blob = le64(2) + payload; // one of two
        linalg::ByteReader r(blob);
        EXPECT_TRUE(r.vec().empty());
        expectFailed(r);
    }
    {
        const std::string blob = le64(huge) + payload;
        linalg::ByteReader r(blob);
        EXPECT_TRUE(r.indexVec().empty());
        expectFailed(r);
    }
    {
        const std::string blob = le64(huge) + "abc";
        linalg::ByteReader r(blob);
        EXPECT_TRUE(r.str().empty());
        expectFailed(r);
    }
    // rows * cols overflows 64 bits to a small product; the guard
    // divides instead of multiplying.
    for (const auto &[rows, cols] :
         {std::pair{huge, std::uint64_t{1}},
          std::pair{std::uint64_t{1} << 32, std::uint64_t{1} << 32},
          std::pair{std::uint64_t{1}, std::uint64_t{2}}}) {
        const std::string blob = le64(rows) + le64(cols) + payload;
        linalg::ByteReader r(blob);
        EXPECT_TRUE(r.mat().empty());
        expectFailed(r);
    }
    // Truncated fixed-width reads fail too.
    const std::string three = "abc";
    linalg::ByteReader r(three);
    EXPECT_EQ(r.u32(), 0u);
    expectFailed(r);
}

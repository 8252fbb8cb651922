/**
 * @file
 * Unit tests for the dense linear-algebra substrate.
 */

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/cholesky.hh"
#include "linalg/error.hh"
#include "linalg/kernels.hh"
#include "linalg/least_squares.hh"
#include "linalg/matrix.hh"
#include "linalg/poly_features.hh"
#include "linalg/serialize.hh"
#include "linalg/simplex.hh"
#include "linalg/vector.hh"
#include "linalg/workspace.hh"
#include "obs/obs.hh"
#include "stats/rng.hh"
#include "support/dense.hh"

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
    Vector c = a;
    c += b;
    EXPECT_DOUBLE_EQ(c[0], 5.0);
    EXPECT_DOUBLE_EQ(c[2], 9.0);
    Vector d = a * 2.0;
    EXPECT_DOUBLE_EQ(d[2], 6.0);
    d /= 2.0;
    EXPECT_DOUBLE_EQ(d[2], 3.0);
    d *= 3.0;
    EXPECT_DOUBLE_EQ(d[1], 6.0);
    EXPECT_THROW(d /= 0.0, FatalError);
}

TEST(Vector, DimensionMismatchThrows)
{
    Vector a(3), b(4);
    EXPECT_THROW(a += b, FatalError);
    EXPECT_THROW(dot(a, b), FatalError);
}

TEST(Vector, Statistics)
{
    Vector v{3.0, -1.0, 4.0, 0.0};
    EXPECT_DOUBLE_EQ(v.sum(), 6.0);
    EXPECT_DOUBLE_EQ(v.mean(), 1.5);
    EXPECT_DOUBLE_EQ(v.max(), 4.0);
    EXPECT_EQ(v.argmax(), 2u);
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
    // The identity (a test reference) and the production diagonal
    // update agree: 0 + 3 on the diagonal is 3 I.
    const Matrix i = support::identity(3);
    EXPECT_DOUBLE_EQ(i(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
    Matrix d(3, 3, 0.0);
    d.addToDiagonal(3.0);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(d(r, c), 3.0 * i(r, c));
    Matrix rect(2, 3);
    EXPECT_THROW(rect.addToDiagonal(1.0), FatalError);
}

TEST(Matrix, OuterProduct)
{
    // The rank-1 update adds scale * x y' entry by entry.
    Matrix o(2, 3, 0.0);
    o.outerAddInto(1.0, Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(o(1, 2), 10.0);
    o.outerAddInto(-0.5, Vector{1.0, 2.0}, Vector{3.0, 4.0, 5.0});
    EXPECT_DOUBLE_EQ(o(1, 2), 5.0);
    EXPECT_DOUBLE_EQ(o(0, 0), 1.5);
    EXPECT_THROW(o.outerAddInto(1.0, Vector{1.0}, Vector{3.0, 4.0, 5.0}),
                 FatalError);
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
    Matrix c = Matrix::multiply(a, b);
    EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 3.0);
}

TEST(Matrix, SymmetryHelpers)
{
    Matrix a{{1.0, 2.0}, {2.0000000001, 3.0}};
    EXPECT_TRUE(support::isSymmetric(a, 1e-6));
    EXPECT_FALSE(support::isSymmetric(a, 1e-12));
    a.symmetrize();
    EXPECT_DOUBLE_EQ(a(0, 1), a(1, 0));
}

TEST(Matrix, RowColAccess)
{
    Matrix a{{1., 2.}, {3., 4.}};
    EXPECT_DOUBLE_EQ(a(1, 0), 3.0);
    EXPECT_THROW(a(2, 0), FatalError);
    EXPECT_THROW(a(0, 2), FatalError);
    a.setRow(0, Vector{9.0, 8.0});
    EXPECT_DOUBLE_EQ(a(0, 1), 8.0);
    EXPECT_DOUBLE_EQ(a(1, 1), 4.0);
    EXPECT_THROW(a.setRow(2, Vector{1.0, 2.0}), FatalError);
    EXPECT_THROW(a.setRow(0, Vector{1.0}), FatalError);
}

// -------------------------------------------------------------- Cholesky

TEST(Cholesky, FactorizeAndSolve)
{
    Matrix a{{4.0, 2.0}, {2.0, 3.0}};
    linalg::Cholesky chol;
    chol.factorize(a);

    Vector b{2.0, 1.0};
    Vector x = b;
    chol.solveInPlace(x);
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
    Matrix a = Matrix::multiply(b, support::transpose(b));
    a.addToDiagonal(static_cast<double>(n));

    linalg::Cholesky chol;
    chol.factorize(a);
    linalg::Workspace ws;
    Matrix inv;
    chol.inverseInto(inv, ws);
    Matrix prod = Matrix::multiply(a, inv);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Cholesky, MatrixSolve)
{
    // A matrix right-hand side: forward substitution, L Y = B.
    Matrix a{{5.0, 1.0}, {1.0, 3.0}};
    Matrix rhs{{1.0, 0.0}, {0.0, 1.0}};
    linalg::Cholesky chol;
    chol.factorize(a);
    Matrix y = rhs;
    chol.solveLowerInPlace(y);
    Matrix prod = Matrix::multiply(chol.factor(), y);
    EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
    EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
    EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
    EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
}

TEST(Cholesky, LogDet)
{
    Matrix a{{2.0, 0.0}, {0.0, 8.0}};
    EXPECT_NEAR(support::cholesky(a).logDet(), std::log(16.0), 1e-12);
}

TEST(Cholesky, RejectsNonPositiveDefinite)
{
    Matrix a{{1.0, 2.0}, {2.0, 1.0}}; // eigenvalues 3, -1
    linalg::Cholesky chol;
    EXPECT_THROW(chol.factorize(a, 0.0, 1e-6), FatalError);
}

TEST(Cholesky, JitterRecoversBorderline)
{
    // Singular PSD matrix; jitter should rescue it: the factor
    // reproduces a plus a small positive diagonal.
    Matrix a{{1.0, 1.0}, {1.0, 1.0}};
    linalg::Cholesky chol;
    chol.factorize(a, 0.0, 1e-4);
    const Matrix &l = chol.factor();
    const double jitter = l(0, 0) * l(0, 0) - a(0, 0);
    EXPECT_GT(jitter, 0.0);
    EXPECT_LE(jitter, 1e-4);
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

TEST(BlockedKernels, SyrkMatchesNaiveToZeroUlp)
{
    // The symmetric rank-k product a a' is the Gram kernel on a's
    // transpose: every entry the naive increasing-k dot of two rows.
    stats::Rng rng(9091);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        Matrix s;
        Matrix::gramInto(s, support::transpose(a));
        expectBitwiseEqual(s, naiveMultiply(a, support::transpose(a)),
                           "syrk " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
        EXPECT_TRUE(support::isSymmetric(s, 0.0));
    }
}

TEST(BlockedKernels, GramMatchesNaiveToZeroUlp)
{
    stats::Rng rng(7777);
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        Matrix g;
        Matrix::gramInto(g, a);
        expectBitwiseEqual(g, naiveMultiply(support::transpose(a), a),
                           "gram " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
        EXPECT_TRUE(support::isSymmetric(g, 0.0));
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
        Vector row(r.cols());
        for (std::size_t j = 0; j < r.cols(); ++j)
            row[j] = r.at(i, j);
        expect += support::outer(row, row);
    }
    Matrix g;
    Matrix::gramInto(g, r);
    expectBitwiseEqual(g, expect, "gram-as-outer-sum");
}

// ------------------------------------------------- Into-variant kernels
//
// The allocation-free EM loop uses into-buffer kernels; each must
// return exactly — 0 ULP — what the plain loop of its textbook form
// (tests/support/dense.hh, or the naive factorization below) does.
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
    Matrix a = support::gram(support::transpose(b));
    a.addToDiagonal(static_cast<double>(n));
    return a;
}

/** Scalar factor reference: the naive left-looking loop on the lower
 *  triangle of a, with the diagonal additions applied first. */
bool
naiveCholesky(Matrix &l, const Matrix &a, double added, double jitter)
{
    const std::size_t n = a.rows();
    l = Matrix(n, n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        double d = a.at(j, j);
        if (added != 0.0)
            d += added;
        if (jitter > 0.0)
            d += jitter;
        for (std::size_t k = 0; k < j; ++k)
            d -= l.at(j, k) * l.at(j, k);
        if (!(d > 0.0) || !std::isfinite(d))
            return false;
        const double ljj = std::sqrt(d);
        l.at(j, j) = ljj;
        const double inv = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double acc = a.at(i, j);
            for (std::size_t k = 0; k < j; ++k)
                acc -= l.at(i, k) * l.at(j, k);
            l.at(i, j) = acc * inv;
        }
    }
    return true;
}

/** The naive factor of a + added I, retried with the jitter schedule
 *  of Cholesky::factorize (max_jitter * 1e-6, times ten, up to
 *  max_jitter); an empty matrix when every attempt fails. */
Matrix
naiveFactor(const Matrix &a, double added, double max_jitter)
{
    Matrix l;
    if (naiveCholesky(l, a, added, 0.0))
        return l;
    for (double jitter = max_jitter * 1e-6;
         jitter > 0.0 && jitter <= max_jitter; jitter *= 10.0)
        if (naiveCholesky(l, a, added, jitter))
            return l;
    return Matrix();
}

/** The EM-relevant dimensions: trivial, prime, one tile, many tiles. */
const std::size_t kSpdSizes[] = {1, 7, 64, 130};

/** EM core orders q: 20 and 44 leave a 4-wide tail slice in the
 *  inverse's 8-column slices, 37 a 5-wide one. */
const std::size_t kEmCoreSizes[] = {20, 37, 44};

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
}

TEST(Workspace, KeepsFactorsByKey)
{
    linalg::Workspace ws;
    linalg::Cholesky &c = ws.cholesky("c");
    c.factorize(Matrix{{4.0, 2.0}, {2.0, 3.0}});
    // Same key: the same factor, its storage counted in bytes().
    EXPECT_EQ(&ws.cholesky("c"), &c);
    EXPECT_NE(&ws.cholesky("d"), &c);
    EXPECT_EQ(ws.cholesky("c").factor().at(0, 0), 2.0);
    EXPECT_EQ(ws.bytes(), 4 * sizeof(double));
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

TEST(IntoKernels, GramIntoMatchesGramToZeroUlp)
{
    stats::Rng rng(3222);
    Matrix g_out;
    for (const auto &shape : kShapes) {
        const Matrix a = randomMatrix(shape[0], shape[1], rng);
        Matrix::gramInto(g_out, a);
        expectBitwiseEqual(g_out, support::gram(a),
                           "gramInto " + std::to_string(shape[0]) + "x" +
                               std::to_string(shape[1]));
    }
}

TEST(IntoKernels, GatherTransposeAndAxpyVariantsMatchToZeroUlp)
{
    stats::Rng rng(3333);
    const Matrix a = randomMatrix(67, 67, rng);

    Matrix out;
    a.transposeInto(out);
    expectBitwiseEqual(out, support::transpose(a), "transposeInto");

    // Each entry adds the scaled term in one rounding step.
    const Matrix b = randomMatrix(67, 67, rng);
    Matrix sum = a;
    sum.addScaled(-3.5, b);
    Matrix expect = a;
    for (std::size_t i = 0; i < 67; ++i)
        for (std::size_t j = 0; j < 67; ++j)
            expect.at(i, j) += -3.5 * b.at(i, j);
    expectBitwiseEqual(sum, expect, "addScaled");

    Vector x(67), y(67);
    for (std::size_t i = 0; i < 67; ++i) {
        x[i] = rng.gaussian();
        y[i] = rng.gaussian();
    }
    sum = a;
    sum.outerAddInto(2.25, x, y);
    const Matrix xy = support::outer(x, y);
    expect = a;
    for (std::size_t i = 0; i < 67; ++i)
        for (std::size_t j = 0; j < 67; ++j)
            expect.at(i, j) += 2.25 * xy.at(i, j);
    expectBitwiseEqual(sum, expect, "outerAddInto");
}

TEST(IntoKernels, FactorizeMatchesConstructorToZeroUlp)
{
    stats::Rng rng(3555);
    linalg::Cholesky incremental;
    for (std::size_t n : kSpdSizes) {
        const Matrix sigma = randomSpd(n, rng);
        const double added = 0.037;

        // The reference is the naive left-looking loop.
        const Matrix reference = naiveFactor(sigma, added, 1e-6);

        // Reuses the factor storage left over from the previous
        // (different-sized) problem.
        incremental.reserve(n);
        incremental.factorize(sigma, added, 1e-6);
        expectBitwiseEqual(incremental.factor(), reference,
                           "factorize n=" + std::to_string(n));
    }
}

TEST(IntoKernels, FactorizeAppliesJitterScheduleLikeConstructor)
{
    // Singular PSD input: the tiled factorization must land on the
    // jitter the schedule's first successful naive attempt uses.
    Matrix a{{1.0, 1.0}, {1.0, 1.0}};
    Matrix bare;
    ASSERT_FALSE(naiveCholesky(bare, a, 0.0, 0.0));
    const Matrix reference = naiveFactor(a, 0.0, 1e-4);
    ASSERT_FALSE(reference.empty());
    linalg::Cholesky incremental;
    incremental.factorize(a, 0.0, 1e-4);
    expectBitwiseEqual(incremental.factor(), reference,
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
    std::vector<std::size_t> sizes(std::begin(kSpdSizes),
                                   std::end(kSpdSizes));
    sizes.insert(sizes.end(), std::begin(kEmCoreSizes),
                 std::end(kEmCoreSizes));
    for (std::size_t n : sizes) {
        const Matrix a = randomSpd(n, rng);
        const linalg::Cholesky chol = support::cholesky(a);
        const Matrix reference = support::inverse(chol);

        chol.inverseInto(inv_buf, ws);
        expectBitwiseEqual(inv_buf, reference,
                           "inverseInto n=" + std::to_string(n));
    }
}

TEST(IntoKernels, InPlaceSolvesMatchAllocatingSolvesToZeroUlp)
{
    stats::Rng rng(3777);
    for (std::size_t n : kSpdSizes) {
        const Matrix a = randomSpd(n, rng);
        const linalg::Cholesky chol = support::cholesky(a);

        Vector b(n);
        for (std::size_t i = 0; i < n; ++i)
            b[i] = rng.gaussian();

        Vector x = b;
        chol.solveInPlace(x);
        const Vector expect = support::solve(chol, b);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(x[i], expect[i]) << "solveInPlace n=" << n;

        Vector y = b;
        chol.solveLowerInPlace(y);
        const Vector lexpect = support::solveLower(chol, b);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(y[i], lexpect[i]) << "solveLowerInPlace n=" << n;
    }
}

TEST(IntoKernels, MatrixForwardSolveMatchesSolveLowerPerColumnToZeroUlp)
{
    stats::Rng rng(3779);
    for (std::size_t n : kSpdSizes) {
        const Matrix a = randomSpd(n, rng);
        const linalg::Cholesky chol = support::cholesky(a);
        for (std::size_t cols : {1u, 5u, 44u}) {
            const Matrix rhs = randomMatrix(n, cols, rng);
            Matrix y = rhs;
            chol.solveLowerInPlace(y);
            for (std::size_t c = 0; c < cols; ++c) {
                Vector col(n);
                for (std::size_t i = 0; i < n; ++i)
                    col[i] = rhs.at(i, c);
                const Vector expect = support::solveLower(chol, col);
                for (std::size_t i = 0; i < n; ++i)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(y.at(i, c)),
                              std::bit_cast<std::uint64_t>(expect[i]))
                        << "n=" << n << " cols=" << cols << " at (" << i
                        << ", " << c << ")";
            }
        }
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
    Matrix a = support::gram(support::transpose(b));
    a.addToDiagonal(static_cast<double>(n));

    const Matrix reference = naiveFactor(a, 0.0, 1e-6);
    linalg::Cholesky blocked;
    blocked.reserve(n);
    blocked.factorize(a, 0.0, 1e-6);
    expectBitwiseEqual(blocked.factor(), reference,
                       "blocked factor n=1030");

    linalg::Workspace ws;
    Matrix inv_buf;
    blocked.inverseInto(inv_buf, ws);
    expectBitwiseEqual(inv_buf, support::inverse(blocked),
                       "inverseInto n=1030");
}

// -------------------------------------------- Kernel instantiations

namespace leo::linalg::detail
{

/** gtest names the build in failure messages and test lists. */
void
PrintTo(Isa isa, std::ostream *os)
{
    *os << (isa == Isa::Avx2 ? "Avx2" : "Portable");
}

} // namespace leo::linalg::detail

namespace
{

using linalg::detail::Isa;

/**
 * Every tile tail of both builds: 0-9 cover each remainder of the
 * 4-row blocks and of the 1-, 2-, 4-, 8- and 16-column tiles, 15-17
 * and 63-65 straddle a full tile and the 64-wide panel, 20, 37, 40
 * and 44 are EM orders, and 130 spans three panels.
 */
const std::size_t kTailDims[] = {0,  1,  2,  3,  4,  5,  6,
                                 7,  8,  9,  15, 16, 17, 20,
                                 37, 40, 44, 63, 64, 65, 130};

/** The EM's (rows, inner, cols) products at s = 20, q = 40 and 44,
 *  m = 20 and 24: P C, W = Z (C + beta I)^-1 and A = (P C) P'. */
const std::size_t kEmProducts[][3] = {
    {20, 40, 40}, {20, 44, 44}, {24, 40, 40}, {24, 44, 44},
    {20, 40, 20}, {20, 44, 20}};

/** The EM's Gram shapes (rows, cols): Y' Y and the residual R' R. */
const std::size_t kEmGrams[][2] = {{20, 40}, {20, 44}, {24, 40}, {24, 44}};

/** Bit-for-bit equality: -0.0 differs from +0.0 here, unlike ==. */
void
expectSameBits(const Matrix &got, const Matrix &want, const std::string &what)
{
    ASSERT_EQ(got.rows(), want.rows()) << what;
    ASSERT_EQ(got.cols(), want.cols()) << what;
    for (std::size_t r = 0; r < got.rows(); ++r)
        for (std::size_t c = 0; c < got.cols(); ++c)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(got.at(r, c)),
                      std::bit_cast<std::uint64_t>(want.at(r, c)))
                << what << " differs at (" << r << ", " << c << "): "
                << got.at(r, c) << " vs " << want.at(r, c);
}

/** A rows x cols buffer of NaN: a kernel that leaves an entry
 *  unwritten fails the bit comparison. */
Matrix
dirty(std::size_t rows, std::size_t cols)
{
    return Matrix(rows, cols, std::nan(""));
}

/** The top-left rows x cols block of m. */
Matrix
block(const Matrix &m, std::size_t rows, std::size_t cols)
{
    Matrix out(rows, cols);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            out.at(r, c) = m.at(r, c);
    return out;
}

/** Scalar forward-substitution reference, column by column. */
Matrix
naiveForward(const Matrix &l, const Matrix &b)
{
    Matrix y = b;
    for (std::size_t c = 0; c < b.cols(); ++c)
        for (std::size_t i = 0; i < l.rows(); ++i) {
            double acc = b.at(i, c);
            for (std::size_t k = 0; k < i; ++k)
                acc -= l.at(i, k) * y.at(k, c);
            y.at(i, c) = acc / l.at(i, i);
        }
    return y;
}

/** SPD with an upper triangle that disagrees with its lower one: the
 *  factor must read the lower triangle only. */
Matrix
lopsidedSpd(std::size_t n, stats::Rng &rng)
{
    Matrix a = randomSpd(n, rng);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            a.at(i, j) += 0.5;
    return a;
}

/** Tridiagonal SPD with some zero couplings: its factor and inverse
 *  hold exact zeros, so the kernels' zero skips matter. */
Matrix
sparseSpd(std::size_t n)
{
    Matrix a(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        a.at(i, i) = 4.0 + static_cast<double>(i % 3);
        if (i + 1 < n) {
            const double off =
                i % 5 == 2 ? 0.0 : -1.0 - 0.01 * static_cast<double>(i);
            a.at(i, i + 1) = off;
            a.at(i + 1, i) = off;
        }
    }
    return a;
}

std::string
shapeName(const char *what, std::size_t a, std::size_t b,
          std::size_t c = 0)
{
    return std::string(what) + " " + std::to_string(a) + "x" +
           std::to_string(b) + (c ? "x" + std::to_string(c) : "");
}

/** Runs one instantiation; the AVX2 half skips on a host without it. */
class KernelIsa : public ::testing::TestWithParam<Isa>
{
  protected:
    void
    SetUp() override
    {
        if (GetParam() == Isa::Avx2 && !linalg::detail::hostHasAvx2())
            GTEST_SKIP() << "the host CPU has no AVX2";
    }
};

} // namespace

TEST_P(KernelIsa, MultiplyMatchesScalarOrderToZeroUlp)
{
    stats::Rng rng(4101);
    const Matrix a0 = randomMatrix(130, 130, rng);
    const Matrix b0 = randomMatrix(130, 130, rng);
    auto check = [&](std::size_t m, std::size_t kk, std::size_t n) {
        const Matrix a = block(a0, m, kk);
        const Matrix b = block(b0, kk, n);
        Matrix out = dirty(m, n);
        linalg::detail::multiplyInto(GetParam(), out, a, b);
        expectSameBits(out, naiveMultiply(a, b),
                       shapeName("multiply", m, kk, n));
    };
    for (std::size_t m : kTailDims)
        for (std::size_t kk : kTailDims)
            for (std::size_t n : kTailDims)
                check(m, kk, n);
    for (const auto &s : kEmProducts)
        check(s[0], s[1], s[2]);
}

TEST_P(KernelIsa, GramMatchesScalarOrderToZeroUlp)
{
    stats::Rng rng(4202);
    const Matrix a0 = randomMatrix(130, 130, rng);
    auto check = [&](std::size_t m, std::size_t n) {
        const Matrix a = block(a0, m, n);
        Matrix out = dirty(n, n);
        linalg::detail::gramInto(GetParam(), out, a);
        expectSameBits(out, support::gram(a), shapeName("gram", m, n));
    };
    for (std::size_t m : kTailDims)
        for (std::size_t n : kTailDims)
            check(m, n);
    for (const auto &s : kEmGrams)
        check(s[0], s[1]);
}

TEST_P(KernelIsa, FactorMatchesScalarOrderToZeroUlp)
{
    stats::Rng rng(4303);
    auto check = [&](const Matrix &a, double added, double jitter,
                     const std::string &what) {
        Matrix want;
        const bool ok = naiveCholesky(want, a, added, jitter);
        Matrix l = dirty(a.rows(), a.rows());
        ASSERT_EQ(linalg::detail::choleskyInto(GetParam(), l, a, added,
                                               jitter),
                  ok)
            << what;
        if (ok)
            expectSameBits(l, want, what);
    };
    for (std::size_t n : kTailDims) {
        const Matrix a = lopsidedSpd(n, rng);
        check(a, 0.0, 0.0, "factor n=" + std::to_string(n));
        check(a, 0.037, 1e-9, "jittered factor n=" + std::to_string(n));
        check(sparseSpd(n), 0.0, 0.0,
              "sparse factor n=" + std::to_string(n));
    }
    // A pivot that is not positive fails the same way on both paths.
    Matrix bad = randomSpd(9, rng);
    bad.at(6, 6) = -1.0;
    check(bad, 0.0, 0.0, "indefinite");
}

TEST_P(KernelIsa, InverseMatchesScalarOrderToZeroUlp)
{
    stats::Rng rng(4404);
    auto check = [&](const Matrix &a, const std::string &what) {
        const linalg::Cholesky chol = support::cholesky(a);
        Matrix inv = dirty(a.rows(), a.rows());
        Matrix k = dirty(a.rows(), a.rows());
        linalg::detail::choleskyInverseInto(GetParam(), inv, k,
                                            chol.factor());
        expectSameBits(inv, support::inverse(chol), what);
    };
    for (std::size_t n : kTailDims) {
        check(randomSpd(n, rng), "inverse n=" + std::to_string(n));
        check(sparseSpd(n), "sparse inverse n=" + std::to_string(n));
    }
}

TEST_P(KernelIsa, ForwardSolveMatchesScalarOrderToZeroUlp)
{
    stats::Rng rng(4505);
    const Matrix b0 = randomMatrix(130, 130, rng);
    for (std::size_t n : kTailDims) {
        const linalg::Cholesky chol = support::cholesky(randomSpd(n, rng));
        for (std::size_t m : kTailDims) {
            const Matrix b = block(b0, n, m);
            Matrix x = b;
            linalg::detail::forwardSolveInPlace(GetParam(), chol.factor(),
                                                x);
            expectSameBits(x, naiveForward(chol.factor(), b),
                           shapeName("forward solve", n, m));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Builds, KernelIsa,
                         ::testing::Values(Isa::Portable, Isa::Avx2),
                         ::testing::PrintToStringParamName());

/**
 * The process runs the AVX2 build exactly when the CPU reports AVX2,
 * and the registry's leo.linalg.simd.lanes gauge names it: 4 lanes
 * for AVX2, 2 for the portable (SSE2) build on x86-64.
 */
TEST(KernelDispatch, LanesGaugeNamesTheActiveBuild)
{
    namespace detail = linalg::detail;
    EXPECT_EQ(detail::activeIsa() == Isa::Avx2, detail::hostHasAvx2());
#if defined(__x86_64__)
    const bool avx2 = __builtin_cpu_supports("avx2");
    EXPECT_EQ(detail::hostHasAvx2(), avx2);
    EXPECT_EQ(detail::simdLanes(detail::activeIsa()), avx2 ? 4u : 2u);
#endif
    obs::Registry &reg = obs::Registry::global();
    if (!reg.enabled())
        GTEST_SKIP() << "LEO_OBS=off: the registry is a null sink";
    double lanes = 0.0;
    for (const auto &[name, value] : reg.snapshot().gauges)
        if (name == obs::names::kLinalgSimdLanes)
            lanes = value;
    EXPECT_EQ(lanes,
              static_cast<double>(detail::simdLanes(detail::activeIsa())));
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
/**
 * A counting writer stores nothing and counts exactly what a real
 * writer appends for the same calls, so a counting pass can size a
 * save's buffer; reserve() then makes room without changing a byte.
 */
TEST(ByteCodec, CounterCountsWhatTheWriterWrites)
{
    Matrix m(3, 2, 0.25);
    const auto calls = [&](linalg::ByteWriter &w) {
        w.u8(1);
        w.u32(2);
        w.u64(3);
        w.f64(-0.0);
        w.str("seven");
        w.str("");
        w.vec(Vector{1.0, 2.0, 3.0});
        w.vec(Vector{});
        w.mat(m);
        w.mat(Matrix());
        w.indexVec({4, 5});
    };
    linalg::ByteWriter real;
    calls(real);
    linalg::ByteWriter counter = linalg::ByteWriter::counter();
    calls(counter);
    EXPECT_EQ(counter.size(), real.bytes().size());
    EXPECT_EQ(real.size(), real.bytes().size());
    EXPECT_TRUE(counter.bytes().empty());
    counter.reserve(1 << 20);
    EXPECT_TRUE(counter.bytes().empty());

    linalg::ByteWriter sized;
    sized.reserve(counter.size());
    calls(sized);
    EXPECT_EQ(sized.bytes(), real.bytes());
    EXPECT_EQ(sized.bytes().capacity(), sized.bytes().size());
}

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

/**
 * @file
 * Implementation of the Cholesky factorization.
 */

#include "linalg/cholesky.hh"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hh"
#include "linalg/workspace.hh"

namespace leo::linalg
{

Cholesky::Cholesky(const Matrix &a, double max_jitter)
{
    require(a.rows() == a.cols(), "Cholesky of non-square matrix");
    require(a.isSymmetric(1e-6 * (1.0 + a.frobeniusNorm())),
            "Cholesky of non-symmetric matrix");

    if (tryFactor(a, 0.0))
        return;

    // Not numerically positive definite: retry with growing jitter.
    double jitter = max_jitter > 0.0 ? max_jitter * 1e-6 : 0.0;
    while (jitter > 0.0 && jitter <= max_jitter) {
        if (tryFactor(a, jitter)) {
            jitter_ = jitter;
            return;
        }
        jitter *= 10.0;
    }
    fatal("Cholesky: matrix is not positive definite");
}

void
Cholesky::reserve(std::size_t n)
{
    l_.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
}

void
Cholesky::factorize(const Matrix &a, double added_diag,
                    double max_jitter)
{
    require(a.rows() == a.cols(),
            "Cholesky::factorize of non-square matrix");
    jitter_ = 0.0;
    // Every entry of the factor receives the subtraction sequence of
    // the naive left-looking loop in tryFactor(), so the factor is
    // bitwise identical (kernels.cc).
    const detail::Isa isa = detail::activeIsa();
    if (detail::choleskyInto(isa, l_, a, added_diag, 0.0))
        return;

    // Same retry schedule as the constructor.
    double jitter = max_jitter > 0.0 ? max_jitter * 1e-6 : 0.0;
    while (jitter > 0.0 && jitter <= max_jitter) {
        if (detail::choleskyInto(isa, l_, a, added_diag, jitter)) {
            jitter_ = jitter;
            return;
        }
        jitter *= 10.0;
    }
    fatal("Cholesky: matrix is not positive definite");
}

bool
Cholesky::tryFactor(const Matrix &a, double jitter)
{
    const std::size_t n = a.rows();
    l_ = a;
    if (jitter > 0.0)
        l_.addToDiagonal(jitter);

    // In-place left-looking Cholesky on the lower triangle.
    for (std::size_t j = 0; j < n; ++j) {
        double d = l_.at(j, j);
        for (std::size_t k = 0; k < j; ++k)
            d -= l_.at(j, k) * l_.at(j, k);
        if (!(d > 0.0) || !std::isfinite(d))
            return false;
        const double ljj = std::sqrt(d);
        l_.at(j, j) = ljj;
        const double inv_ljj = 1.0 / ljj;
        for (std::size_t i = j + 1; i < n; ++i) {
            double s = l_.at(i, j);
            for (std::size_t k = 0; k < j; ++k)
                s -= l_.at(i, k) * l_.at(j, k);
            l_.at(i, j) = s * inv_ljj;
        }
    }
    // Zero the strictly upper triangle so factor() is truly lower.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            l_.at(i, j) = 0.0;
    return true;
}

Vector
Cholesky::solveLower(const Vector &b) const
{
    const std::size_t n = dim();
    require(b.size() == n, "Cholesky::solveLower dimension mismatch");
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= l_.at(i, k) * y[k];
        y[i] = s / l_.at(i, i);
    }
    return y;
}

Vector
Cholesky::solve(const Vector &b) const
{
    const std::size_t n = dim();
    Vector y = solveLower(b);
    // Back substitution: L' x = y.
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= l_.at(k, ii) * x[k];
        x[ii] = s / l_.at(ii, ii);
    }
    return x;
}

void
Cholesky::solveLowerInPlace(Vector &b) const
{
    const std::size_t n = dim();
    require(b.size() == n,
            "Cholesky::solveLowerInPlace dimension mismatch");
    // Identical arithmetic to solveLower(): at row i, b[k < i]
    // already holds y[k] and b[i] still holds the original entry.
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= l_.at(i, k) * b[k];
        b[i] = s / l_.at(i, i);
    }
}

void
Cholesky::solveInPlace(Vector &b) const
{
    const std::size_t n = dim();
    require(b.size() == n,
            "Cholesky::solveInPlace dimension mismatch");
    solveLowerInPlace(b);
    // Back substitution in place: at row ii, b[k > ii] already holds
    // x[k] and b[ii] still holds y[ii] — the same value sequence as
    // the out-of-place solve().
    for (std::size_t ii = n; ii-- > 0;) {
        double s = b[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= l_.at(k, ii) * b[k];
        b[ii] = s / l_.at(ii, ii);
    }
}

void
Cholesky::solveLowerInPlace(Matrix &x) const
{
    require(x.rows() == dim(),
            "Cholesky::solveLowerInPlace dimension mismatch");
    // Row i of Y = L^-1 B: subtract the earlier rows in ascending k,
    // then divide by the pivot. Column by column that is solveLower()'s
    // arithmetic (same terms, same order, no zero skip, a division, not
    // a reciprocal multiply), so each column matches it bit for bit.
    detail::forwardSolveInPlace(detail::activeIsa(), l_, x);
}

Matrix
Cholesky::solve(const Matrix &b) const
{
    Matrix x = b;
    solveInPlace(x);
    return x;
}

void
Cholesky::solveInPlace(Matrix &x) const
{
    const std::size_t n = dim();
    require(x.rows() == n, "Cholesky::solve dimension mismatch");
    const std::size_t m = x.cols();
    // Forward substitution on all columns: L Y = B.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = l_.at(i, k);
            if (lik == 0.0)
                continue;
            for (std::size_t c = 0; c < m; ++c)
                x.at(i, c) -= lik * x.at(k, c);
        }
        const double inv = 1.0 / l_.at(i, i);
        for (std::size_t c = 0; c < m; ++c)
            x.at(i, c) *= inv;
    }
    // Back substitution on all columns: L' X = Y.
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k) {
            const double lki = l_.at(k, ii);
            if (lki == 0.0)
                continue;
            for (std::size_t c = 0; c < m; ++c)
                x.at(ii, c) -= lki * x.at(k, c);
        }
        const double inv = 1.0 / l_.at(ii, ii);
        for (std::size_t c = 0; c < m; ++c)
            x.at(ii, c) *= inv;
    }
}

Matrix
Cholesky::inverse() const
{
    // Invert the triangular factor (K = L^-1) row by row, then
    // accumulate A^-1 = K' K as a sum of outer products of K's rows.
    // Both phases stream along contiguous rows, which matters: this
    // is the O(n^3) kernel inside every EM iteration at n = 1024.
    const std::size_t n = dim();
    Matrix k(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        // Row i of K: forward substitution against the unit vector.
        k.at(i, i) = 1.0;
        for (std::size_t p = 0; p < i; ++p) {
            const double lip = l_.at(i, p);
            if (lip == 0.0)
                continue;
            for (std::size_t j = 0; j <= p; ++j)
                k.at(i, j) -= lip * k.at(p, j);
        }
        const double inv_lii = 1.0 / l_.at(i, i);
        for (std::size_t j = 0; j <= i; ++j)
            k.at(i, j) *= inv_lii;
    }
    Matrix inv(n, n, 0.0);
    for (std::size_t p = 0; p < n; ++p) {
        for (std::size_t i = 0; i <= p; ++i) {
            const double kpi = k.at(p, i);
            if (kpi == 0.0)
                continue;
            for (std::size_t j = 0; j <= i; ++j)
                inv.at(i, j) += kpi * k.at(p, j);
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            inv.at(j, i) = inv.at(i, j);
    return inv;
}

void
Cholesky::reserveInverseScratch(Workspace &ws, std::size_t n)
{
    ws.matrix("chol.k", n, n);
}

void
Cholesky::inverseInto(Matrix &inv, Workspace &ws) const
{
    // K = L^-1 by forward substitution of the unit vectors, then
    // A^-1 = K' K; each entry's terms, their increasing order and the
    // zero skips are inverse()'s (kernels.cc).
    const std::size_t n = dim();
    Matrix &k = ws.matrix("chol.k", n, n);
    detail::choleskyInverseInto(detail::activeIsa(), inv, k, l_);
}

double
Cholesky::logDet() const
{
    double acc = 0.0;
    for (std::size_t i = 0; i < dim(); ++i)
        acc += std::log(l_.at(i, i));
    return 2.0 * acc;
}

} // namespace leo::linalg

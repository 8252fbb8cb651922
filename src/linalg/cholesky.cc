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
    // Every entry of the factor receives the subtraction sequence of
    // the naive left-looking loop (kernels.cc).
    const detail::Isa isa = detail::activeIsa();
    if (detail::choleskyInto(isa, l_, a, added_diag, 0.0))
        return;

    // Not numerically positive definite: retry with growing jitter.
    double jitter = max_jitter > 0.0 ? max_jitter * 1e-6 : 0.0;
    while (jitter > 0.0 && jitter <= max_jitter) {
        if (detail::choleskyInto(isa, l_, a, added_diag, jitter))
            return;
        jitter *= 10.0;
    }
    fatal("Cholesky: matrix is not positive definite");
}

void
Cholesky::solveLowerInPlace(Vector &b) const
{
    const std::size_t n = dim();
    require(b.size() == n,
            "Cholesky::solveLowerInPlace dimension mismatch");
    // At row i, b[k < i] already holds y[k] and b[i] still holds the
    // original entry.
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
    // x[k] and b[ii] still holds y[ii].
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
    // then divide by the pivot. Column by column that is the vector
    // solveLowerInPlace()'s arithmetic (same terms, same order, no zero
    // skip, a division, not a reciprocal multiply), bit for bit.
    detail::forwardSolveInPlace(detail::activeIsa(), l_, x);
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
    // A^-1 = K' K as a sum of outer products of K's rows, skipping
    // zero multipliers (kernels.cc).
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

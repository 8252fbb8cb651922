/**
 * @file
 * Implementation of the Cholesky factorization.
 */

#include "linalg/cholesky.hh"

#include <algorithm>
#include <cmath>

#include "linalg/workspace.hh"

namespace leo::linalg
{

namespace
{

/** Panel / tile edge for the blocked factor and inverse kernels
 *  (64 x 64 doubles = 32 KiB, matching the Matrix kernels). */
constexpr std::size_t kPanel = 64;

} // namespace

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
    panelT_.resize(kPanel, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
}

void
Cholesky::factorize(const Matrix &a, double added_diag,
                    double max_jitter)
{
    require(a.rows() == a.cols(),
            "Cholesky::factorize of non-square matrix");
    jitter_ = 0.0;
    if (tryFactorBlocked(a, added_diag, 0.0))
        return;

    // Same retry schedule as the constructor.
    double jitter = max_jitter > 0.0 ? max_jitter * 1e-6 : 0.0;
    while (jitter > 0.0 && jitter <= max_jitter) {
        if (tryFactorBlocked(a, added_diag, jitter)) {
            jitter_ = jitter;
            return;
        }
        jitter *= 10.0;
    }
    fatal("Cholesky: matrix is not positive definite");
}

bool
Cholesky::tryFactorBlocked(const Matrix &a, double added_diag,
                           double jitter)
{
    const std::size_t n = a.rows();
    l_ = a;
    if (added_diag != 0.0)
        l_.addToDiagonal(added_diag);
    if (jitter > 0.0)
        l_.addToDiagonal(jitter);
    if (panelT_.rows() != kPanel || panelT_.cols() != n)
        panelT_.resize(kPanel, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized

    // Right-looking blocked Cholesky. Every entry (i, j) of the
    // lower triangle receives its updates -= l(i,k) * l(j,k) in
    // increasing-k order — panels ascending, k ascending within a
    // panel — i.e. exactly the subtraction sequence of the naive
    // left-looking loop in tryFactor(), so the factor is bitwise
    // identical. The blocked order just streams each trailing row
    // once per panel instead of once per column.
    for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
        const std::size_t p1 = std::min(n, p0 + kPanel);
        // Factor the panel columns, right-looking within the panel.
        for (std::size_t j = p0; j < p1; ++j) {
            const double d = l_.at(j, j);
            if (!(d > 0.0) || !std::isfinite(d))
                return false;
            const double ljj = std::sqrt(d);
            l_.at(j, j) = ljj;
            const double inv_ljj = 1.0 / ljj;
            for (std::size_t i = j + 1; i < n; ++i)
                l_.at(i, j) = l_.at(i, j) * inv_ljj;
            // Immediately push column j's rank-1 update onto the
            // remaining panel columns (the trailing matrix right of
            // the panel is updated en bloc below).
            for (std::size_t i = j + 1; i < n; ++i) {
                const double lij = l_.at(i, j);
                const std::size_t c_hi = std::min(p1, i + 1);
                for (std::size_t c = j + 1; c < c_hi; ++c)
                    l_.at(i, c) -= lij * l_.at(c, j);
            }
        }
        if (p1 >= n)
            continue;
        // Trailing update: subtract the panel's contribution from
        // the remaining lower triangle. The panel rows are staged
        // transposed so the inner loop is a contiguous saxpy.
        for (std::size_t k = p0; k < p1; ++k)
            for (std::size_t c = p1; c < n; ++c)
                panelT_.at(k - p0, c) = l_.at(c, k);
        for (std::size_t i = p1; i < n; ++i) {
            // 8 trailing entries at a time through registers; each
            // entry subtracts its panel terms in the same ascending-k
            // order as the per-column loop above.
            for (std::size_t cb = p1; cb <= i; cb += 8) {
                const std::size_t w =
                    std::min<std::size_t>(8, i + 1 - cb);
                if (w == 8) {
                    // Named scalars (not an array) so the accumulators
                    // live in registers across the whole panel at -O2.
                    const double *d = &l_.at(i, cb);
                    double a0 = d[0], a1 = d[1], a2 = d[2], a3 = d[3],
                           a4 = d[4], a5 = d[5], a6 = d[6], a7 = d[7];
                    const double *li = &l_.at(i, 0);
                    const double *pt = &panelT_.at(0, cb);
                    const std::size_t stride = panelT_.cols();
                    for (std::size_t k = p0; k < p1;
                         ++k, pt += stride) {
                        const double lik = li[k];
                        a0 -= lik * pt[0];
                        a1 -= lik * pt[1];
                        a2 -= lik * pt[2];
                        a3 -= lik * pt[3];
                        a4 -= lik * pt[4];
                        a5 -= lik * pt[5];
                        a6 -= lik * pt[6];
                        a7 -= lik * pt[7];
                    }
                    double *o = &l_.at(i, cb);
                    o[0] = a0; o[1] = a1; o[2] = a2; o[3] = a3;
                    o[4] = a4; o[5] = a5; o[6] = a6; o[7] = a7;
                } else {
                    double acc[8];
                    for (std::size_t jj = 0; jj < w; ++jj)
                        acc[jj] = l_.at(i, cb + jj);
                    for (std::size_t k = p0; k < p1; ++k) {
                        const double lik = l_.at(i, k);
                        const double *pt = &panelT_.at(k - p0, cb);
                        for (std::size_t jj = 0; jj < w; ++jj)
                            acc[jj] -= lik * pt[jj];
                    }
                    for (std::size_t jj = 0; jj < w; ++jj)
                        l_.at(i, cb + jj) = acc[jj];
                }
            }
        }
    }
    // Zero the strictly upper triangle so factor() is truly lower.
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j)
            l_.at(i, j) = 0.0;
    return true;
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
    const std::size_t n = dim();
    require(x.rows() == n,
            "Cholesky::solveLowerInPlace dimension mismatch");
    const std::size_t m = x.cols();
    // Row i of Y = L^-1 B: subtract the earlier rows in ascending k,
    // then divide by the pivot. Column by column that is solveLower()'s
    // arithmetic (same terms, same order, no zero skip, a division, not
    // a reciprocal multiply), so each column matches it bit for bit;
    // the rows are contiguous, so every step is a vectorizable axpy.
    for (std::size_t i = 0; i < n; ++i) {
        double *__restrict xi = x.data() + i * m;
        for (std::size_t k = 0; k < i; ++k) {
            const double lik = l_.at(i, k);
            const double *__restrict xk = x.data() + k * m;
            for (std::size_t c = 0; c < m; ++c)
                xi[c] -= lik * xk[c];
        }
        const double lii = l_.at(i, i);
        for (std::size_t c = 0; c < m; ++c)
            xi[c] /= lii;
    }
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
    ws.matrix("chol.kt", n, n);
    ws.matrix("chol.panel", n, kPanel);
}

void
Cholesky::inverseInto(Matrix &inv, Workspace &ws) const
{
    const std::size_t n = dim();
    Matrix &k = ws.matrix("chol.k", n, n);
    Matrix &kt = ws.matrix("chol.kt", n, n);
    Matrix &panel = ws.matrix("chol.panel", n, kPanel);

    // Phase 1: K = L^-1, computed one 64-column panel at a time.
    // Column c of K is the forward substitution of the unit vector
    // e_c; every entry (i, c) receives the same subtractions, in the
    // same increasing-p order, as inverse()'s row-looking loop (its
    // structural-zero terms contribute exact +0 there and are simply
    // never generated here), so the phases agree bit for bit. The
    // panel form streams L once per panel instead of re-reading all
    // earlier K rows for every row i.
    for (std::size_t c0 = 0; c0 < n; c0 += kPanel) {
        const std::size_t c1 = std::min(n, c0 + kPanel);
        const std::size_t w = c1 - c0;
        for (std::size_t i = c0; i < n; ++i) {
            const double inv_lii = 1.0 / l_.at(i, i);
            // Run each 8-column slice of row i through registers:
            // every entry still receives its subtractions in
            // ascending-p order, there is just no store per p.
            for (std::size_t cb = 0; cb < w; cb += 8) {
                const std::size_t wb =
                    std::min<std::size_t>(8, w - cb);
                // K is lower triangular: a slice right of row i is
                // all structural zeros, and rows p above the slice's
                // first column e hold zeros in it, whose terms are
                // exact no-ops on an accumulator that starts at +0 or
                // 1. So the p-run starts at e.
                const std::size_t e = c0 + cb;
                if (e > i) {
                    for (std::size_t jj = 0; jj < wb; ++jj)
                        panel.at(i, cb + jj) = 0.0;
                    continue;
                }
                if (wb == 8) {
                    // Named scalars (not an array) so the accumulators
                    // live in registers across the whole p-run at -O2.
                    double a0 = (i == e) ? 1.0 : 0.0;
                    double a1 = (i == e + 1) ? 1.0 : 0.0;
                    double a2 = (i == e + 2) ? 1.0 : 0.0;
                    double a3 = (i == e + 3) ? 1.0 : 0.0;
                    double a4 = (i == e + 4) ? 1.0 : 0.0;
                    double a5 = (i == e + 5) ? 1.0 : 0.0;
                    double a6 = (i == e + 6) ? 1.0 : 0.0;
                    double a7 = (i == e + 7) ? 1.0 : 0.0;
                    const double *pp = &panel.at(e, cb);
                    const std::size_t stride = panel.cols();
                    for (std::size_t p = e; p < i;
                         ++p, pp += stride) {
                        const double lip = l_.at(i, p);
                        if (lip == 0.0)
                            continue;
                        a0 -= lip * pp[0];
                        a1 -= lip * pp[1];
                        a2 -= lip * pp[2];
                        a3 -= lip * pp[3];
                        a4 -= lip * pp[4];
                        a5 -= lip * pp[5];
                        a6 -= lip * pp[6];
                        a7 -= lip * pp[7];
                    }
                    double *o = &panel.at(i, cb);
                    o[0] = a0 * inv_lii;
                    o[1] = a1 * inv_lii;
                    o[2] = a2 * inv_lii;
                    o[3] = a3 * inv_lii;
                    o[4] = a4 * inv_lii;
                    o[5] = a5 * inv_lii;
                    o[6] = a6 * inv_lii;
                    o[7] = a7 * inv_lii;
                } else {
                    double acc[8];
                    for (std::size_t jj = 0; jj < wb; ++jj)
                        acc[jj] = (i == e + jj) ? 1.0 : 0.0;
                    for (std::size_t p = e; p < i; ++p) {
                        const double lip = l_.at(i, p);
                        if (lip == 0.0)
                            continue;
                        const double *pp = &panel.at(p, cb);
                        for (std::size_t jj = 0; jj < wb; ++jj)
                            acc[jj] -= lip * pp[jj];
                    }
                    for (std::size_t jj = 0; jj < wb; ++jj)
                        panel.at(i, cb + jj) = acc[jj] * inv_lii;
                }
            }
        }
        // Publish the panel into K (zeroing the strictly-upper part
        // of these columns, which a reused buffer may have dirty).
        for (std::size_t i = 0; i < c0; ++i)
            for (std::size_t c = c0; c < c1; ++c)
                k.at(i, c) = 0.0;
        for (std::size_t i = c0; i < n; ++i)
            for (std::size_t cc = 0; cc < w; ++cc)
                k.at(i, c0 + cc) = panel.at(i, cc);
    }
    k.transposeInto(kt);

    // Phase 2: A^-1 = K' K, blocked over lower-triangle tiles. The
    // per-entry products and their increasing-p order match
    // inverse() exactly (including its kpi == 0 skip); the p-run of
    // row i starts at i, since K(p, i) is a structural zero above it.
    inv.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    for (std::size_t i0 = 0; i0 < n; i0 += kPanel) {
        const std::size_t i1 = std::min(n, i0 + kPanel);
        for (std::size_t j0 = 0; j0 <= i0; j0 += kPanel) {
            const std::size_t j1 = std::min(n, j0 + kPanel);
            for (std::size_t i = i0; i < i1; ++i) {
                const std::size_t j_hi = std::min(j1, i + 1);
                for (std::size_t j = j0; j < j_hi; ++j)
                    inv.at(i, j) = 0.0;
            }
            for (std::size_t p0 = i0; p0 < n; p0 += kPanel) {
                const std::size_t p1 = std::min(n, p0 + kPanel);
                for (std::size_t i = i0; i < i1; ++i) {
                    const std::size_t j_hi = std::min(j1, i + 1);
                    // Accumulate 8 output entries in registers across
                    // the whole p-tile (independent dependency chains,
                    // no store per p); each entry still sums its
                    // p-terms in ascending order.
                    const std::size_t p_lo = std::max(p0, i);
                    for (std::size_t jb = j0; jb < j_hi; jb += 8) {
                        const std::size_t w =
                            std::min<std::size_t>(8, j_hi - jb);
                        if (w == 8) {
                            // Named scalars (not an array) so the
                            // accumulators live in registers across
                            // the whole p-tile at -O2.
                            const double *d = &inv.at(i, jb);
                            double a0 = d[0], a1 = d[1], a2 = d[2],
                                   a3 = d[3], a4 = d[4], a5 = d[5],
                                   a6 = d[6], a7 = d[7];
                            const double *kti = &kt.at(i, 0);
                            const double *kp = &k.at(p_lo, jb);
                            const std::size_t stride = k.cols();
                            for (std::size_t p = p_lo; p < p1;
                                 ++p, kp += stride) {
                                const double kpi = kti[p];
                                if (kpi == 0.0)
                                    continue;
                                a0 += kpi * kp[0];
                                a1 += kpi * kp[1];
                                a2 += kpi * kp[2];
                                a3 += kpi * kp[3];
                                a4 += kpi * kp[4];
                                a5 += kpi * kp[5];
                                a6 += kpi * kp[6];
                                a7 += kpi * kp[7];
                            }
                            double *o = &inv.at(i, jb);
                            o[0] = a0; o[1] = a1; o[2] = a2;
                            o[3] = a3; o[4] = a4; o[5] = a5;
                            o[6] = a6; o[7] = a7;
                        } else {
                            double acc[8];
                            for (std::size_t jj = 0; jj < w; ++jj)
                                acc[jj] = inv.at(i, jb + jj);
                            for (std::size_t p = p_lo; p < p1; ++p) {
                                const double kpi = kt.at(i, p);
                                if (kpi == 0.0)
                                    continue;
                                const double *kp = &k.at(p, jb);
                                for (std::size_t jj = 0; jj < w; ++jj)
                                    acc[jj] += kpi * kp[jj];
                            }
                            for (std::size_t jj = 0; jj < w; ++jj)
                                inv.at(i, jb + jj) = acc[jj];
                        }
                    }
                }
            }
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            inv.at(j, i) = inv.at(i, j);
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

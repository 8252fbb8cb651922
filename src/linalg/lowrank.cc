/**
 * @file
 * Implementation of the low-rank basis and its small dense kernels.
 */

#include "linalg/lowrank.hh"

#include <algorithm>
#include <cmath>

#include "linalg/error.hh"

namespace leo::linalg
{

namespace
{

/**
 * Residual directions smaller than this (relative to the incoming
 * vector's norm) are treated as already-in-span and dropped: keeping
 * them would add a basis row that is mostly rounding noise.
 */
constexpr double kDropTol = 1e-10;

} // namespace

double
dotN(const double *__restrict a, const double *__restrict b,
     std::size_t n)
{
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += a[i] * b[i];
        s1 += a[i + 1] * b[i + 1];
        s2 += a[i + 2] * b[i + 2];
        s3 += a[i + 3] * b[i + 3];
    }
    double tail = 0.0;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return ((s0 + s1) + (s2 + s3)) + tail;
}

void
axpyN(double *__restrict y, const double *__restrict x, double s,
      std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += s * x[i];
}

void
LowRankBasis::reset(std::size_t n, std::size_t max_rank)
{
    n_ = n;
    q_ = 0;
    rows_.resize(max_rank, n);
}

bool
LowRankBasis::appendVector(const Vector &x)
{
    require(x.size() == n_, "LowRankBasis: dimension mismatch");
    if (q_ >= rows_.rows())
        return false;
    double *__restrict v = rows_.data() + q_ * n_;
    for (std::size_t j = 0; j < n_; ++j)
        v[j] = x[j];
    const double norm0 = std::sqrt(dotN(v, v, n_));
    if (!(norm0 > 0.0) || !std::isfinite(norm0))
        return false;

    // Two MGS sweeps: the second pass removes the O(eps * cos-angle)
    // residue the first leaves behind when x nearly lies in the span.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < q_; ++k) {
            const double *__restrict row = rows_.data() + k * n_;
            const double c = dotN(row, v, n_);
            axpyN(v, row, -c, n_);
        }
    }
    const double norm = std::sqrt(dotN(v, v, n_));
    if (!(norm > kDropTol * norm0) || !std::isfinite(norm))
        return false;
    const double inv = 1.0 / norm;
    for (std::size_t j = 0; j < n_; ++j)
        v[j] *= inv;
    ++q_;
    return true;
}

bool
LowRankBasis::appendUnit(std::size_t j)
{
    require(j < n_, "LowRankBasis: unit index out of range");
    if (q_ >= rows_.rows())
        return false;
    double *__restrict v = rows_.data() + q_ * n_;
    for (std::size_t i = 0; i < n_; ++i)
        v[i] = 0.0;
    v[j] = 1.0;
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t k = 0; k < q_; ++k) {
            const double *__restrict row = rows_.data() + k * n_;
            const double c = dotN(row, v, n_);
            axpyN(v, row, -c, n_);
        }
    }
    const double norm = std::sqrt(dotN(v, v, n_));
    if (!(norm > kDropTol) || !std::isfinite(norm))
        return false;
    const double inv = 1.0 / norm;
    for (std::size_t i = 0; i < n_; ++i)
        v[i] *= inv;
    ++q_;
    return true;
}

void
LowRankBasis::coordsInto(Vector &c, const Vector &x) const
{
    require(x.size() == n_, "LowRankBasis: coords dimension mismatch");
    c.resize(q_);
    const double *__restrict xp = x.data();
    for (std::size_t k = 0; k < q_; ++k)
        c[k] = dotN(rows_.data() + k * n_, xp, n_);
}

void
LowRankBasis::expandInto(Vector &x, const Vector &c) const
{
    require(c.size() == q_, "LowRankBasis: expand dimension mismatch");
    x.resize(n_);
    double *__restrict xp = x.data();
    for (std::size_t j = 0; j < n_; ++j)
        xp[j] = 0.0;
    for (std::size_t k = 0; k < q_; ++k)
        axpyN(xp, rows_.data() + k * n_, c[k], n_);
}

void
LowRankBasis::rowsInto(Matrix &out) const
{
    out.resize(q_, n_);
    for (std::size_t k = 0; k < q_; ++k) {
        double *__restrict o = out.data() + k * n_;
        const double *__restrict r = rows_.data() + k * n_;
        for (std::size_t j = 0; j < n_; ++j)
            o[j] = r[j];
    }
}

void
abtInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    require(a.cols() == b.cols(), "abtInto dimension mismatch");
    require(&out != &a && &out != &b, "abtInto aliased output");
    const std::size_t r = a.rows();
    const std::size_t c = b.rows();
    const std::size_t kk = a.cols();
    out.resize(r, c); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    for (std::size_t i = 0; i < r; ++i) {
        const double *__restrict ai = a.data() + i * kk;
        std::size_t j = 0;
        for (; j + 4 <= c; j += 4) {
            const double *__restrict b0 = b.data() + j * kk;
            const double *__restrict b1 = b.data() + (j + 1) * kk;
            const double *__restrict b2 = b.data() + (j + 2) * kk;
            const double *__restrict b3 = b.data() + (j + 3) * kk;
            double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
            for (std::size_t k = 0; k < kk; ++k) {
                const double aik = ai[k];
                s0 += aik * b0[k];
                s1 += aik * b1[k];
                s2 += aik * b2[k];
                s3 += aik * b3[k];
            }
            out.at(i, j) = s0;
            out.at(i, j + 1) = s1;
            out.at(i, j + 2) = s2;
            out.at(i, j + 3) = s3;
        }
        for (; j < c; ++j)
            out.at(i, j) = dotN(ai, b.data() + j * kk, kk);
    }
}

void
atbInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    require(a.rows() == b.rows(), "atbInto dimension mismatch");
    require(&out != &a && &out != &b, "atbInto aliased output");
    const std::size_t kk = a.rows();
    const std::size_t r = a.cols();
    const std::size_t c = b.cols();
    out.resize(r, c); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    out.fill(0.0);
    // Rank-1 row updates: out += a_row_k' * b_row_k, each a saxpy
    // over out's contiguous rows.
    for (std::size_t k = 0; k < kk; ++k) {
        const double *__restrict ak = a.data() + k * r;
        const double *__restrict bk = b.data() + k * c;
        for (std::size_t i = 0; i < r; ++i) {
            const double aki = ak[i];
            if (aki == 0.0)
                continue;
            axpyN(out.data() + i * c, bk, aki, c);
        }
    }
}

void
gemvInto(Vector &y, const Matrix &a, const Vector &x)
{
    require(a.cols() == x.size(), "gemvInto dimension mismatch");
    require(&y != &x, "gemvInto aliased output");
    const std::size_t r = a.rows();
    const std::size_t c = a.cols();
    y.resize(r); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    const double *__restrict xp = x.data();
    for (std::size_t i = 0; i < r; ++i)
        y[i] = dotN(a.data() + i * c, xp, c);
}

void
gemvTransInto(Vector &y, const Matrix &a, const Vector &x)
{
    require(a.rows() == x.size(),
            "gemvTransInto dimension mismatch");
    require(&y != &x, "gemvTransInto aliased output");
    const std::size_t r = a.rows();
    const std::size_t c = a.cols();
    y.resize(c); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    double *__restrict yp = y.data();
    for (std::size_t j = 0; j < c; ++j)
        yp[j] = 0.0;
    for (std::size_t i = 0; i < r; ++i)
        axpyN(yp, a.data() + i * c, x[i], c);
}

} // namespace leo::linalg

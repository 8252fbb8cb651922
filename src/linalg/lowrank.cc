/**
 * @file
 * Implementation of the low-rank basis and its small dense kernels.
 */

#include "linalg/lowrank.hh"

#include <algorithm>
#include <cmath>
#include <utility>

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

namespace
{

/**
 * c = Q v over the first q rows of `rows` (row stride n): four rows
 * share each pass over v, one accumulator per row, every entry
 * summed in ascending j.
 */
void
productRows(double *__restrict c, const double *__restrict rows,
            std::size_t q, const double *__restrict v, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= q; k += 4) {
        const double *__restrict r0 = rows + k * n;
        const double *__restrict r1 = r0 + n;
        const double *__restrict r2 = r1 + n;
        const double *__restrict r3 = r2 + n;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double vj = v[j];
            s0 += r0[j] * vj;
            s1 += r1[j] * vj;
            s2 += r2[j] * vj;
            s3 += r3[j] * vj;
        }
        c[k] = s0;
        c[k + 1] = s1;
        c[k + 2] = s2;
        c[k + 3] = s3;
    }
    for (; k < q; ++k)
        c[k] = dotN(rows + k * n, v, n);
}

/** v -= Q' c over the first q rows, four rows per pass over v. */
void
subtractRows(double *__restrict v, const double *__restrict rows,
             std::size_t q, const double *__restrict c, std::size_t n)
{
    std::size_t k = 0;
    for (; k + 4 <= q; k += 4) {
        const double *__restrict r0 = rows + k * n;
        const double *__restrict r1 = r0 + n;
        const double *__restrict r2 = r1 + n;
        const double *__restrict r3 = r2 + n;
        const double c0 = c[k], c1 = c[k + 1], c2 = c[k + 2],
                     c3 = c[k + 3];
        for (std::size_t j = 0; j < n; ++j)
            v[j] -= (c0 * r0[j] + c1 * r1[j]) + (c2 * r2[j] + c3 * r3[j]);
    }
    for (; k < q; ++k)
        axpyN(v, rows + k * n, -c[k], n);
}

} // namespace

void
LowRankBasis::reset(std::size_t n, std::size_t max_rank)
{
    n_ = n;
    q_ = 0;
    rows_.resize(max_rank, n);
    coeffs_.resize(0);
    second_.resize(max_rank);
}

bool
LowRankBasis::orthonormalizeStaged()
{
    double *__restrict v = rows_.data() + q_ * n_;
    coeffs_.resize(q_ + 1);
    double *__restrict c = coeffs_.data();
    double *__restrict c2 = second_.data();
    const double norm0 = std::sqrt(dotN(v, v, n_));

    // Two CGS passes: the second removes the O(eps * cos-angle)
    // residue the first leaves behind when v nearly lies in the span,
    // and the vector's coefficients are the two passes' sum. A zero
    // or non-finite vector fails the drop test below.
    productRows(c, rows_.data(), q_, v, n_);
    subtractRows(v, rows_.data(), q_, c, n_);
    productRows(c2, rows_.data(), q_, v, n_);
    subtractRows(v, rows_.data(), q_, c2, n_);
    for (std::size_t k = 0; k < q_; ++k)
        c[k] += c2[k];

    const double norm = std::sqrt(dotN(v, v, n_));
    c[q_] = norm;
    if (!(norm > kDropTol * norm0) || !std::isfinite(norm))
        return false;
    const double inv = 1.0 / norm;
    for (std::size_t j = 0; j < n_; ++j)
        v[j] *= inv;
    ++q_;
    return true;
}

bool
LowRankBasis::appendVector(const Vector &x)
{
    require(x.size() == n_, "LowRankBasis: dimension mismatch");
    if (q_ >= rows_.rows()) {
        coeffs_.resize(0);
        return false;
    }
    std::copy(x.data(), x.data() + n_, rows_.data() + q_ * n_);
    return orthonormalizeStaged();
}

bool
LowRankBasis::appendUnit(std::size_t j)
{
    require(j < n_, "LowRankBasis: unit index out of range");
    if (q_ >= rows_.rows()) {
        coeffs_.resize(0);
        return false;
    }
    double *__restrict v = rows_.data() + q_ * n_;
    std::fill(v, v + n_, 0.0);
    v[j] = 1.0;
    return orthonormalizeStaged();
}

Matrix
LowRankBasis::releaseRows()
{
    Matrix out;
    if (q_ == rows_.rows()) {
        out = std::move(rows_);
    } else {
        out.resize(q_, n_);
        std::copy(rows_.data(), rows_.data() + q_ * n_, out.data());
    }
    rows_ = Matrix();
    n_ = 0;
    q_ = 0;
    return out;
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

/**
 * @file
 * Implementation of the dense Matrix type.
 */

#include "linalg/matrix.hh"

#include <algorithm>
#include <cmath>

namespace leo::linalg
{

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
{
    rows_ = rows.size();
    cols_ = rows_ == 0 ? 0 : rows.begin()->size();
    data_.reserve(rows_ * cols_); // leo-lint: allow(hot-alloc-transitive) cold init-list ctor; hot paths use the pooled sized ctor
    for (const auto &r : rows) {
        require(r.size() == cols_, "Matrix init rows of unequal length");
        data_.insert(data_.end(), r.begin(), r.end());
    }
}

Matrix
Matrix::identity(std::size_t d)
{
    Matrix m(d, d, 0.0);
    for (std::size_t i = 0; i < d; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
Matrix::diag(const Vector &x)
{
    Matrix m(x.size(), x.size(), 0.0);
    for (std::size_t i = 0; i < x.size(); ++i)
        m.at(i, i) = x[i];
    return m;
}

Matrix
Matrix::outer(const Vector &x, const Vector &y)
{
    Matrix m(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        for (std::size_t j = 0; j < y.size(); ++j)
            m.at(i, j) = x[i] * y[j];
    return m;
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    require(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    require(r < rows_ && c < cols_, "Matrix index out of range");
    return data_[r * cols_ + c];
}

Vector
Matrix::row(std::size_t r) const
{
    require(r < rows_, "Matrix row out of range");
    Vector v(cols_);
    for (std::size_t c = 0; c < cols_; ++c)
        v[c] = at(r, c);
    return v;
}

Vector
Matrix::col(std::size_t c) const
{
    require(c < cols_, "Matrix col out of range");
    Vector v(rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        v[r] = at(r, c);
    return v;
}

void
Matrix::setRow(std::size_t r, const Vector &v)
{
    require(r < rows_ && v.size() == cols_, "setRow dimension mismatch");
    for (std::size_t c = 0; c < cols_; ++c)
        at(r, c) = v[c];
}

void
Matrix::setCol(std::size_t c, const Vector &v)
{
    require(c < cols_ && v.size() == rows_, "setCol dimension mismatch");
    for (std::size_t r = 0; r < rows_; ++r)
        at(r, c) = v[r];
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    require(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix += dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Matrix &
Matrix::operator-=(const Matrix &other)
{
    require(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix -= dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] -= other.data_[i];
    return *this;
}

Matrix &
Matrix::operator*=(double s)
{
    for (double &v : data_)
        v *= s;
    return *this;
}

Matrix &
Matrix::operator/=(double s)
{
    require(s != 0.0, "Matrix /= by zero");
    for (double &v : data_)
        v /= s;
    return *this;
}

Matrix
Matrix::transpose() const
{
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            t.at(c, r) = at(r, c);
    return t;
}

double
Matrix::trace() const
{
    require(rows_ == cols_, "trace of non-square matrix");
    double acc = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        acc += at(i, i);
    return acc;
}

double
Matrix::frobeniusNorm() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v * v;
    return std::sqrt(acc);
}

Vector
Matrix::diagonal() const
{
    require(rows_ == cols_, "diagonal of non-square matrix");
    Vector v(rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        v[i] = at(i, i);
    return v;
}

bool
Matrix::allFinite() const
{
    return std::all_of(data_.begin(), data_.end(),
                       [](double v) { return std::isfinite(v); });
}

bool
Matrix::isSymmetric(double tol) const
{
    if (rows_ != cols_)
        return false;
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = r + 1; c < cols_; ++c)
            if (std::abs(at(r, c) - at(c, r)) > tol)
                return false;
    return true;
}

void
Matrix::symmetrize()
{
    require(rows_ == cols_, "symmetrize of non-square matrix");
    for (std::size_t r = 0; r < rows_; ++r) {
        for (std::size_t c = r + 1; c < cols_; ++c) {
            double avg = 0.5 * (at(r, c) + at(c, r));
            at(r, c) = avg;
            at(c, r) = avg;
        }
    }
}

void
Matrix::addToDiagonal(double s)
{
    require(rows_ == cols_, "addToDiagonal of non-square matrix");
    for (std::size_t i = 0; i < rows_; ++i)
        at(i, i) += s;
}

Matrix
Matrix::gather(const std::vector<std::size_t> &idx) const
{
    return gather(idx, idx);
}

Matrix
Matrix::gather(const std::vector<std::size_t> &row_idx,
               const std::vector<std::size_t> &col_idx) const
{
    Matrix out(row_idx.size(), col_idx.size());
    for (std::size_t r = 0; r < row_idx.size(); ++r) {
        require(row_idx[r] < rows_, "gather row index out of range");
        for (std::size_t c = 0; c < col_idx.size(); ++c) {
            require(col_idx[c] < cols_, "gather col index out of range");
            out.at(r, c) = at(row_idx[r], col_idx[c]);
        }
    }
    return out;
}

void
Matrix::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Matrix::resize(std::size_t rows, std::size_t cols)
{
    if (rows == rows_ && cols == cols_)
        return;
    rows_ = rows;
    cols_ = cols;
    // assign() reuses capacity on both shrink and within-capacity
    // growth, so workspace buffers re-shape without reallocating.
    data_.assign(rows * cols, 0.0);
}

void
Matrix::addScaled(double scale, const Matrix &other)
{
    require(rows_ == other.rows_ && cols_ == other.cols_,
            "Matrix::addScaled dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += scale * other.data_[i];
}

void
Matrix::outerAddInto(double scale, const Vector &x, const Vector &y)
{
    require(rows_ == x.size() && cols_ == y.size(),
            "Matrix::outerAddInto dimension mismatch");
    for (std::size_t i = 0; i < rows_; ++i) {
        const double xi = x[i];
        for (std::size_t j = 0; j < cols_; ++j)
            at(i, j) += (xi * y[j]) * scale;
    }
}

void
Matrix::transposeInto(Matrix &out) const
{
    out.resize(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c)
            out.at(c, r) = at(r, c);
}

namespace
{

/** Tile edge for the blocked kernels: 64x64 doubles = 32 KiB per
 *  operand tile, sized to keep three tiles resident in a typical
 *  256 KiB L2 slice. */
constexpr std::size_t kBlock = 64;

} // namespace

Matrix
Matrix::multiply(const Matrix &a, const Matrix &b)
{
    require(a.cols() == b.rows(), "Matrix * Matrix dimension mismatch");
    const std::size_t m = a.rows();
    const std::size_t kk = a.cols();
    const std::size_t n = b.cols();
    Matrix out(m, n, 0.0);
    // k-blocks advance in the second loop so every output entry
    // accumulates its inner dimension in increasing-k order — the
    // order the naive triple loop uses, hence bitwise equality.
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
        const std::size_t i1 = std::min(m, i0 + kBlock);
        for (std::size_t k0 = 0; k0 < kk; k0 += kBlock) {
            const std::size_t k1 = std::min(kk, k0 + kBlock);
            for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
                const std::size_t j1 = std::min(n, j0 + kBlock);
                for (std::size_t i = i0; i < i1; ++i) {
                    for (std::size_t k = k0; k < k1; ++k) {
                        const double a_ik = a.at(i, k);
                        for (std::size_t j = j0; j < j1; ++j)
                            out.at(i, j) += a_ik * b.at(k, j);
                    }
                }
            }
        }
    }
    return out;
}

Matrix
Matrix::syrk(const Matrix &a)
{
    const std::size_t m = a.rows();
    const std::size_t kk = a.cols();
    Matrix out(m, m);
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
        const std::size_t i1 = std::min(m, i0 + kBlock);
        for (std::size_t j0 = 0; j0 <= i0; j0 += kBlock) {
            const std::size_t j1 = std::min(m, j0 + kBlock);
            for (std::size_t i = i0; i < i1; ++i) {
                const std::size_t j_hi = std::min(j1, i + 1);
                for (std::size_t j = j0; j < j_hi; ++j) {
                    double acc = 0.0;
                    for (std::size_t k = 0; k < kk; ++k)
                        acc += a.at(i, k) * a.at(j, k);
                    out.at(i, j) = acc;
                    out.at(j, i) = acc;
                }
            }
        }
    }
    return out;
}

Matrix
Matrix::gram(const Matrix &a)
{
    return syrk(a.transpose());
}

void
Matrix::multiplyInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    require(a.cols() == b.rows(),
            "multiplyInto dimension mismatch");
    require(&out != &a && &out != &b, "multiplyInto aliased output");
    const std::size_t m = a.rows();
    const std::size_t kk = a.cols();
    const std::size_t n = b.cols();
    out.resize(m, n);
    out.fill(0.0);
    // Same tiling and increasing-k accumulation as multiply(). The
    // inner saxpy runs over restrict-qualified row pointers — out
    // never aliases b (asserted above), and telling the compiler so
    // is what lets it vectorize the j-loop.
    for (std::size_t i0 = 0; i0 < m; i0 += kBlock) {
        const std::size_t i1 = std::min(m, i0 + kBlock);
        for (std::size_t k0 = 0; k0 < kk; k0 += kBlock) {
            const std::size_t k1 = std::min(kk, k0 + kBlock);
            for (std::size_t j0 = 0; j0 < n; j0 += kBlock) {
                const std::size_t j1 = std::min(n, j0 + kBlock);
                for (std::size_t i = i0; i < i1; ++i) {
                    double *__restrict oi = &out.data_[i * n];
                    for (std::size_t k = k0; k < k1; ++k) {
                        const double a_ik = a.at(i, k);
                        const double *__restrict bk =
                            &b.data_[k * n];
                        for (std::size_t j = j0; j < j1; ++j)
                            oi[j] += a_ik * bk[j];
                    }
                }
            }
        }
    }
}

void
Matrix::gramInto(Matrix &out, const Matrix &a)
{
    require(&out != &a, "gramInto aliased output");
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    out.resize(n, n);
    // out(i, j) = sum_k a(k, i) a(k, j) with k ascending — the same
    // per-entry order as gram()'s column dots — accumulated in a
    // register instead of staging the transpose or sweeping the
    // output once per row. The EM loop calls this with very few rows
    // (its per-chunk residual blocks), where the short dot products
    // are far cheaper than m full passes over the n x n output.
    // Four adjacent output columns share each strided a(k, i) load
    // through a restrict-qualified row cursor; each entry keeps its
    // own ascending-k accumulator, so the result is bitwise identical
    // to the scalar loop.
    const double *const ap = a.data_.data();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t j = 0;
        for (; j + 4 <= i + 1; j += 4) {
            double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
            const double *__restrict row = ap;
            for (std::size_t k = 0; k < m; ++k, row += n) {
                const double aki = row[i];
                a0 += aki * row[j];
                a1 += aki * row[j + 1];
                a2 += aki * row[j + 2];
                a3 += aki * row[j + 3];
            }
            out.at(i, j) = a0;
            out.at(i, j + 1) = a1;
            out.at(i, j + 2) = a2;
            out.at(i, j + 3) = a3;
        }
        for (; j <= i; ++j) {
            double acc = 0.0;
            const double *__restrict row = ap;
            for (std::size_t k = 0; k < m; ++k, row += n)
                acc += row[i] * row[j];
            out.at(i, j) = acc;
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            out.at(j, i) = out.at(i, j);
}

Matrix
operator+(Matrix a, const Matrix &b)
{
    a += b;
    return a;
}

Matrix
operator-(Matrix a, const Matrix &b)
{
    a -= b;
    return a;
}

Matrix
operator*(Matrix a, double s)
{
    a *= s;
    return a;
}

Matrix
operator*(double s, Matrix a)
{
    a *= s;
    return a;
}

Matrix
operator*(const Matrix &a, const Matrix &b)
{
    return Matrix::multiply(a, b);
}

Vector
operator*(const Matrix &a, const Vector &x)
{
    require(a.cols() == x.size(), "Matrix * Vector dimension mismatch");
    Vector out(a.rows(), 0.0);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        double acc = 0.0;
        for (std::size_t c = 0; c < a.cols(); ++c)
            acc += a.at(r, c) * x[c];
        out[r] = acc;
    }
    return out;
}

} // namespace leo::linalg

/**
 * @file
 * Implementation of the dense Matrix type.
 */

#include "linalg/matrix.hh"

#include <algorithm>
#include <cmath>

#include "linalg/kernels.hh"

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

void
Matrix::setRow(std::size_t r, const Vector &v)
{
    require(r < rows_ && v.size() == cols_, "setRow dimension mismatch");
    for (std::size_t c = 0; c < cols_; ++c)
        at(r, c) = v[c];
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
Matrix::operator/=(double s)
{
    require(s != 0.0, "Matrix /= by zero");
    for (double &v : data_)
        v /= s;
    return *this;
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

void
Matrix::multiplyInto(Matrix &out, const Matrix &a, const Matrix &b)
{
    require(a.cols() == b.rows(),
            "multiplyInto dimension mismatch");
    require(&out != &a && &out != &b, "multiplyInto aliased output");
    // Register tiles at the host's vector width; every entry is summed
    // from +0.0 in increasing k, as multiply() sums it (kernels.cc).
    detail::multiplyInto(detail::activeIsa(), out, a, b);
}

void
Matrix::gramInto(Matrix &out, const Matrix &a)
{
    require(&out != &a, "gramInto aliased output");
    // out(i, j) = sum_k a(k, i) a(k, j) from +0.0 in increasing k, the
    // per-entry order of gram()'s column dots, without staging the
    // transpose: register tiles of the lower triangle at the host's
    // vector width, then the mirror (kernels.cc).
    detail::gramInto(detail::activeIsa(), out, a);
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

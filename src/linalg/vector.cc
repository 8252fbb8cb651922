/**
 * @file
 * Implementation of the dense Vector type.
 */

#include "linalg/vector.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace leo::linalg
{

Vector::Vector(std::size_t n, double fill) : data_(n, fill)
{
}

Vector::Vector(std::initializer_list<double> values) : data_(values)
{
}

Vector::Vector(std::vector<double> values) : data_(std::move(values))
{
}

double &
Vector::operator()(std::size_t i)
{
    require(i < data_.size(), "Vector index out of range");
    return data_[i];
}

double
Vector::operator()(std::size_t i) const
{
    require(i < data_.size(), "Vector index out of range");
    return data_[i];
}

Vector &
Vector::operator+=(const Vector &other)
{
    require(size() == other.size(), "Vector += dimension mismatch");
    for (std::size_t i = 0; i < data_.size(); ++i)
        data_[i] += other.data_[i];
    return *this;
}

Vector &
Vector::operator*=(double s)
{
    for (double &v : data_)
        v *= s;
    return *this;
}

Vector &
Vector::operator/=(double s)
{
    require(s != 0.0, "Vector /= by zero");
    for (double &v : data_)
        v /= s;
    return *this;
}

double
Vector::sum() const
{
    return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double
Vector::mean() const
{
    require(!data_.empty(), "mean() of empty vector");
    return sum() / static_cast<double>(data_.size());
}

double
Vector::max() const
{
    require(!data_.empty(), "max() of empty vector");
    return *std::max_element(data_.begin(), data_.end());
}

std::size_t
Vector::argmax() const
{
    require(!data_.empty(), "argmax() of empty vector");
    return static_cast<std::size_t>(
        std::max_element(data_.begin(), data_.end()) - data_.begin());
}

double
Vector::norm() const
{
    return std::sqrt(squaredNorm());
}

double
Vector::squaredNorm() const
{
    double acc = 0.0;
    for (double v : data_)
        acc += v * v;
    return acc;
}

Vector
Vector::gather(const std::vector<std::size_t> &idx) const
{
    Vector out(idx.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
        require(idx[k] < size(), "gather index out of range");
        out[k] = data_[idx[k]];
    }
    return out;
}

void
Vector::fill(double value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Vector::resize(std::size_t n)
{
    if (n == data_.size())
        return;
    // assign() reuses capacity on both shrink and within-capacity
    // growth, so workspace buffers re-shape without reallocating.
    data_.assign(n, 0.0);
}

bool
Vector::allFinite() const
{
    return std::all_of(data_.begin(), data_.end(),
                       [](double v) { return std::isfinite(v); });
}

Vector
operator*(Vector a, double s)
{
    a *= s;
    return a;
}

double
dot(const Vector &a, const Vector &b)
{
    require(a.size() == b.size(), "dot dimension mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

} // namespace leo::linalg

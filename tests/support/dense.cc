/**
 * @file
 * Implementation of the dense reference helpers.
 */

#include "support/dense.hh"

#include <cmath>

#include "linalg/error.hh"

namespace leo::support
{

using linalg::Matrix;
using linalg::Vector;

Matrix
identity(std::size_t d)
{
    Matrix m(d, d, 0.0);
    for (std::size_t i = 0; i < d; ++i)
        m.at(i, i) = 1.0;
    return m;
}

Matrix
outer(const Vector &x, const Vector &y)
{
    Matrix m(x.size(), y.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        for (std::size_t j = 0; j < y.size(); ++j)
            m.at(i, j) = x[i] * y[j];
    return m;
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols(), a.rows());
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = 0; c < a.cols(); ++c)
            t.at(c, r) = a.at(r, c);
    return t;
}

Matrix
gram(const Matrix &a)
{
    const std::size_t n = a.cols();
    Matrix g(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j <= i; ++j) {
            double acc = 0.0;
            for (std::size_t k = 0; k < a.rows(); ++k)
                acc += a.at(k, i) * a.at(k, j);
            g.at(i, j) = acc;
            g.at(j, i) = acc;
        }
    return g;
}

bool
isSymmetric(const Matrix &a, double tol)
{
    if (a.rows() != a.cols())
        return false;
    for (std::size_t r = 0; r < a.rows(); ++r)
        for (std::size_t c = r + 1; c < a.cols(); ++c)
            if (std::abs(a.at(r, c) - a.at(c, r)) > tol)
                return false;
    return true;
}

linalg::Cholesky
cholesky(const Matrix &a, double max_jitter)
{
    linalg::Cholesky chol;
    chol.factorize(a, 0.0, max_jitter);
    return chol;
}

Vector
solveLower(const linalg::Cholesky &chol, const Vector &b)
{
    const Matrix &l = chol.factor();
    const std::size_t n = l.rows();
    require(b.size() == n, "solveLower dimension mismatch");
    Vector y(n);
    for (std::size_t i = 0; i < n; ++i) {
        double s = b[i];
        for (std::size_t k = 0; k < i; ++k)
            s -= l.at(i, k) * y[k];
        y[i] = s / l.at(i, i);
    }
    return y;
}

Vector
solve(const linalg::Cholesky &chol, const Vector &b)
{
    const Matrix &l = chol.factor();
    const std::size_t n = l.rows();
    const Vector y = solveLower(chol, b);
    Vector x(n);
    for (std::size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (std::size_t k = ii + 1; k < n; ++k)
            s -= l.at(k, ii) * x[k];
        x[ii] = s / l.at(ii, ii);
    }
    return x;
}

Matrix
inverse(const linalg::Cholesky &chol)
{
    const Matrix &l = chol.factor();
    const std::size_t n = l.rows();
    Matrix k(n, n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        k.at(i, i) = 1.0;
        for (std::size_t p = 0; p < i; ++p) {
            const double lip = l.at(i, p);
            if (lip == 0.0)
                continue;
            for (std::size_t j = 0; j <= p; ++j)
                k.at(i, j) -= lip * k.at(p, j);
        }
        const double inv_lii = 1.0 / l.at(i, i);
        for (std::size_t j = 0; j <= i; ++j)
            k.at(i, j) *= inv_lii;
    }
    Matrix inv(n, n, 0.0);
    for (std::size_t p = 0; p < n; ++p)
        for (std::size_t i = 0; i <= p; ++i) {
            const double kpi = k.at(p, i);
            if (kpi == 0.0)
                continue;
            for (std::size_t j = 0; j <= i; ++j)
                inv.at(i, j) += kpi * k.at(p, j);
        }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            inv.at(j, i) = inv.at(i, j);
    return inv;
}

double
sampleStddev(const Vector &v)
{
    require(v.size() > 1, "sampleStddev needs two values");
    const double mean = v.mean();
    double ss = 0.0;
    for (double x : v)
        ss += (x - mean) * (x - mean);
    return std::sqrt(ss / static_cast<double>(v.size() - 1));
}

} // namespace leo::support

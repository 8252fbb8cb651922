/**
 * @file
 * Implementation of the reference prior-basis build.
 */

#include "support/basis_oracle.hh"

#include <cmath>

#include "linalg/error.hh"
#include "linalg/lowrank.hh"

namespace leo::support
{

OracleBasis
referenceBasis(const std::vector<linalg::Vector> &vectors)
{
    require(!vectors.empty(), "referenceBasis: no vectors");
    const std::size_t n = vectors.front().size();
    const std::size_t m = vectors.size();
    linalg::Matrix staging(m, n);
    std::size_t q = 0;
    for (const linalg::Vector &x : vectors) {
        require(x.size() == n, "referenceBasis: ragged vectors");
        double *v = staging.data() + q * n;
        for (std::size_t j = 0; j < n; ++j)
            v[j] = x[j];
        const double norm0 = std::sqrt(linalg::dotN(v, v, n));
        if (!(norm0 > 0.0) || !std::isfinite(norm0))
            continue;
        for (int pass = 0; pass < 2; ++pass) {
            for (std::size_t k = 0; k < q; ++k) {
                const double *row = staging.data() + k * n;
                linalg::axpyN(v, row, -linalg::dotN(row, v, n), n);
            }
        }
        const double norm = std::sqrt(linalg::dotN(v, v, n));
        if (!(norm > 1e-10 * norm0) || !std::isfinite(norm))
            continue;
        const double inv = 1.0 / norm;
        for (std::size_t j = 0; j < n; ++j)
            v[j] *= inv;
        ++q;
    }

    OracleBasis out;
    out.rows.resize(q, n);
    for (std::size_t k = 0; k < q; ++k)
        for (std::size_t j = 0; j < n; ++j)
            out.rows.at(k, j) = staging.at(k, j);
    out.coords.resize(m, q);
    for (std::size_t i = 0; i < m; ++i) {
        const linalg::Vector c = coordinatesOf(out.rows, vectors[i]);
        for (std::size_t k = 0; k < q; ++k)
            out.coords.at(i, k) = c[k];
    }
    return out;
}

linalg::Vector
coordinatesOf(const linalg::Matrix &q, const linalg::Vector &x)
{
    require(x.size() == q.cols(), "coordinatesOf: dimension mismatch");
    linalg::Vector c(q.rows());
    for (std::size_t k = 0; k < q.rows(); ++k)
        c[k] = linalg::dotN(q.data() + k * q.cols(), x.data(), q.cols());
    return c;
}

linalg::Vector
expansionOf(const linalg::Matrix &q, const linalg::Vector &c)
{
    require(c.size() == q.rows(), "expansionOf: dimension mismatch");
    linalg::Vector x(q.cols(), 0.0);
    for (std::size_t k = 0; k < q.rows(); ++k)
        linalg::axpyN(x.data(), q.data() + k * q.cols(), c[k], q.cols());
    return x;
}

} // namespace leo::support

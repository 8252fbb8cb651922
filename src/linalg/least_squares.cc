/**
 * @file
 * Implementation of Householder-QR least squares.
 */

#include "linalg/least_squares.hh"

#include <cmath>
#include <vector>

namespace leo::linalg
{

LeastSquaresResult
leastSquares(const Matrix &x, const Vector &y, double tol)
{
    const std::size_t m = x.rows();
    const std::size_t n = x.cols();
    require(y.size() == m, "leastSquares dimension mismatch");
    require(n > 0, "leastSquares with empty design");

    // Work on copies: R accumulates the triangularized design, b the
    // transformed targets.
    Matrix r = x;
    Vector b = y;

    const std::size_t steps = std::min(m, n);
    double max_abs_diag = 0.0;

    for (std::size_t k = 0; k < steps; ++k) {
        // Householder vector for column k, rows k..m-1.
        double norm2 = 0.0;
        for (std::size_t i = k; i < m; ++i)
            norm2 += r.at(i, k) * r.at(i, k);
        double alpha = std::sqrt(norm2);
        if (alpha == 0.0)
            continue;
        if (r.at(k, k) > 0.0)
            alpha = -alpha;

        std::vector<double> v(m - k);
        v[0] = r.at(k, k) - alpha;
        for (std::size_t i = k + 1; i < m; ++i)
            v[i - k] = r.at(i, k);
        double vnorm2 = 0.0;
        for (double t : v)
            vnorm2 += t * t;
        if (vnorm2 == 0.0)
            continue;

        // Apply H = I - 2 v v' / (v'v) to R[k:, k:] and b[k:].
        for (std::size_t c = k; c < n; ++c) {
            double s = 0.0;
            for (std::size_t i = k; i < m; ++i)
                s += v[i - k] * r.at(i, c);
            s = 2.0 * s / vnorm2;
            for (std::size_t i = k; i < m; ++i)
                r.at(i, c) -= s * v[i - k];
        }
        double s = 0.0;
        for (std::size_t i = k; i < m; ++i)
            s += v[i - k] * b[i];
        s = 2.0 * s / vnorm2;
        for (std::size_t i = k; i < m; ++i)
            b[i] -= s * v[i - k];

        max_abs_diag = std::max(max_abs_diag, std::abs(r.at(k, k)));
    }

    // Rank test on the diagonal of R.
    const double thresh =
        tol * std::max(1.0, max_abs_diag) *
        static_cast<double>(std::max(m, n));
    std::vector<bool> independent(n, false);
    std::size_t rank = 0;
    for (std::size_t k = 0; k < steps; ++k) {
        if (std::abs(r.at(k, k)) > thresh) {
            independent[k] = true;
            ++rank;
        }
    }

    LeastSquaresResult result;
    result.rank = rank;
    result.fullRank = (rank == n) && (m >= n);

    // Back substitution over the independent columns; dependent
    // coefficients stay zero.
    Vector w(n, 0.0);
    for (std::size_t kk = steps; kk-- > 0;) {
        if (!independent[kk])
            continue;
        double s = b[kk];
        for (std::size_t c = kk + 1; c < n; ++c)
            s -= r.at(kk, c) * w[c];
        w[kk] = s / r.at(kk, kk);
    }
    result.coefficients = w;

    // Residual: recompute against the original system for robustness
    // in the rank-deficient case.
    Vector fitted = x * w;
    double rss = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        const double e = fitted[i] - y[i];
        rss += e * e;
    }
    result.residualSumSquares = rss;
    return result;
}

} // namespace leo::linalg

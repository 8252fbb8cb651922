/**
 * @file
 * Householder-QR least squares.
 *
 * Used by the Online baseline (Section 6.2): a degree-2 multivariate
 * polynomial regression over the configuration knobs. The rank check
 * reproduces the behaviour called out in Figure 12 — with fewer
 * samples than features the design matrix is rank deficient and the
 * online method cannot produce an estimate.
 */

#ifndef LEO_LINALG_LEAST_SQUARES_HH
#define LEO_LINALG_LEAST_SQUARES_HH

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::linalg
{

/** Result of a least-squares solve. */
struct LeastSquaresResult
{
    /** Fitted coefficients (size = number of columns of the design). */
    Vector coefficients;
    /** Numerical rank of the design matrix. */
    std::size_t rank = 0;
    /** True iff the design matrix had full column rank. */
    bool fullRank = false;
    /** Sum of squared residuals of the fit. */
    double residualSumSquares = 0.0;
};

/**
 * Solve min_w ||X w - y||_2 via Householder QR with column norms used
 * for the rank test.
 *
 * When the design is rank deficient, coefficients for dependent
 * columns are set to zero (a minimum-norm-flavoured fallback) and
 * fullRank is false; callers decide whether to trust the fit.
 *
 * @param x   Design matrix (rows = samples, cols = features).
 * @param y   Targets (size = rows of x).
 * @param tol Relative tolerance of the rank test.
 */
LeastSquaresResult leastSquares(const Matrix &x, const Vector &y,
                                double tol = 1e-10);

} // namespace leo::linalg

#endif // LEO_LINALG_LEAST_SQUARES_HH

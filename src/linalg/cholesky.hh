/**
 * @file
 * Cholesky factorization of symmetric positive-definite matrices.
 *
 * This is the numerical workhorse of the EM algorithm in Section 5.3:
 * every E-step solves linear systems in (Sigma + sigma^2 I), which is
 * SPD by construction (the normal-inverse-Wishart prior keeps Sigma
 * positive definite).
 */

#ifndef LEO_LINALG_CHOLESKY_HH
#define LEO_LINALG_CHOLESKY_HH

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::linalg
{

class Workspace;

/**
 * Lower-triangular Cholesky factorization A = L L'.
 *
 * Default-construct once, reserve(), and then factorize() each
 * iteration: the factor storage is reused, and the register-tiled
 * factorization runs at the host's vector width with the per-entry
 * increasing-k update order of the naive left-looking loop. If the
 * input is not positive definite, factorize() retries with growing
 * diagonal jitter before giving up with fatal().
 */
class Cholesky
{
  public:
    /**
     * Construct an empty factorization; factorize() fills it in.
     * Every query other than dim() requires a factorize() first.
     */
    Cholesky() = default;

    /**
     * Pre-size the factor for an n x n factorization so a later
     * factorize(n x n) call does not allocate.
     */
    void reserve(std::size_t n);

    /**
     * Factorize a + added_diag I in place, reusing the existing
     * storage (allocation-free after reserve()).
     *
     * Reads only a's lower triangle. When the factorization fails it
     * retries with jitter max_jitter * 1e-6, then ten times that, up
     * to max_jitter, added to the diagonal.
     *
     * @param a          Symmetric positive-definite matrix.
     * @param added_diag Constant added to the diagonal before
     *                   factoring (e.g. a noise variance).
     * @param max_jitter Largest diagonal jitter to retry with
     *                   (0 disables jitter).
     */
    void factorize(const Matrix &a, double added_diag = 0.0,
                   double max_jitter = 1e-6);

    /** @return The lower-triangular factor L. */
    const Matrix &factor() const { return l_; }

    /** @return The dimension of the factored matrix. */
    std::size_t dim() const { return l_.rows(); }

    /**
     * Allocation-free explicit inverse into a caller buffer.
     *
     * Computes K = L^-1 by tiled forward substitution, then
     * A^-1 = K' K with a tiled product that skips K's structural
     * zeros, and mirrors the lower triangle. Allocation-free once
     * `ws` holds the scratch buffer (key "chol.k" — give each
     * recurring inverseInto call site a workspace of its own, or
     * shapes will thrash).
     *
     * @param inv Output buffer (re-shaped as needed).
     * @param ws  Scratch arena for the triangular-inverse panels.
     */
    void inverseInto(Matrix &inv, Workspace &ws) const;

    /**
     * Pre-acquire the "chol.k" scratch buffer an n x n inverseInto
     * will use, so a hot loop's first inverseInto call performs no
     * allocations.
     */
    static void reserveInverseScratch(Workspace &ws, std::size_t n);

    /** @return log det A = 2 sum_i log L[i][i]. */
    double logDet() const;

    /** In-place forward substitution: b <- L^-1 b. */
    void solveLowerInPlace(Vector &b) const;

    /**
     * In-place forward substitution on a matrix right-hand side:
     * b <- L^-1 b. Each column is bitwise the vector
     * solveLowerInPlace() of that column; the row-wise sweep runs
     * across the columns at vector width.
     */
    void solveLowerInPlace(Matrix &b) const;

    /** In-place SPD solve: b <- A^-1 b. */
    void solveInPlace(Vector &b) const;

  private:
    Matrix l_;
};

} // namespace leo::linalg

#endif // LEO_LINALG_CHOLESKY_HH

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
 * The factorization is computed once at construction; solves against
 * multiple right-hand sides reuse the factor. If the input is not
 * positive definite the constructor retries with growing diagonal
 * jitter up to maxJitter before giving up with fatal().
 *
 * Hot loops instead default-construct once, reserve(), and then
 * factorize() each iteration: that path reuses the factor storage,
 * skips the constructor's symmetry check, and runs a register-tiled
 * factorization at the host's vector width that is bitwise identical
 * to the constructor's naive left-looking one (per-entry
 * increasing-k update order is preserved).
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
     * Factorize an SPD matrix.
     *
     * @param a          Symmetric positive-definite matrix.
     * @param max_jitter Largest diagonal jitter to try when the bare
     *                   factorization fails (0 disables jitter).
     */
    explicit Cholesky(const Matrix &a, double max_jitter = 1e-6);

    /**
     * Pre-size the factor for an n x n factorization so a later
     * factorize(n x n) call does not allocate.
     */
    void reserve(std::size_t n);

    /**
     * Re-factor in place: factorize a + added_diag I, reusing the
     * existing storage (allocation-free after reserve()).
     *
     * Unlike the constructor this skips the symmetry check and reads
     * only a's lower triangle, and it uses the tiled kernel. The
     * jitter retry schedule matches the
     * constructor, and the resulting factor is bitwise identical to
     * `Cholesky(a', max_jitter)` for a' = a + added_diag I.
     *
     * @param a          Symmetric positive-definite matrix.
     * @param added_diag Constant added to the diagonal before
     *                   factoring (e.g. a noise variance).
     * @param max_jitter Largest diagonal jitter to retry with.
     */
    void factorize(const Matrix &a, double added_diag = 0.0,
                   double max_jitter = 1e-6);

    /** @return The lower-triangular factor L. */
    const Matrix &factor() const { return l_; }

    /** @return The jitter that was added to the diagonal (usually 0). */
    double jitterUsed() const { return jitter_; }

    /** @return The dimension of the factored matrix. */
    std::size_t dim() const { return l_.rows(); }

    /**
     * Solve A x = b.
     *
     * @param b Right-hand side.
     * @return x = A^-1 b.
     */
    Vector solve(const Vector &b) const;

    /**
     * Solve A X = B for a matrix right-hand side.
     *
     * @param b Right-hand side with dim() rows.
     * @return X = A^-1 B.
     */
    Matrix solve(const Matrix &b) const;

    /** @return The explicit inverse A^-1 (SPD). */
    Matrix inverse() const;

    /**
     * Allocation-free explicit inverse into a caller buffer.
     *
     * Computes K = L^-1 by tiled forward substitution, then
     * A^-1 = K' K with a tiled product that skips K's structural
     * zeros, and mirrors the lower triangle. Bitwise identical to
     * inverse() (same per-entry accumulation order), several times
     * faster, and allocation-free once `ws` holds the scratch buffer
     * (key "chol.k" — give each recurring inverseInto call site a
     * workspace of its own, or shapes will thrash).
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

    /**
     * Forward substitution: solve L y = b.
     *
     * Exposed for whitening operations in sampling code.
     */
    Vector solveLower(const Vector &b) const;

    /**
     * In-place forward substitution: b <- L^-1 b. Bitwise identical
     * to solveLower() without the result allocation.
     */
    void solveLowerInPlace(Vector &b) const;

    /**
     * In-place forward substitution on a matrix right-hand side:
     * b <- L^-1 b. Each column is bitwise solveLower() of that column;
     * the row-wise sweep runs across the columns at vector width.
     */
    void solveLowerInPlace(Matrix &b) const;

    /**
     * In-place SPD solve: b <- A^-1 b. Bitwise identical to
     * solve(const Vector &) without the temporaries.
     */
    void solveInPlace(Vector &b) const;

    /**
     * In-place SPD solve on a matrix right-hand side: b <- A^-1 b.
     * solve(const Matrix &) is this applied to a copy.
     */
    void solveInPlace(Matrix &b) const;

  private:
    /** Attempt the factorization; @return true on success. */
    bool tryFactor(const Matrix &a, double jitter);

    Matrix l_;
    double jitter_ = 0.0;
};

} // namespace leo::linalg

#endif // LEO_LINALG_CHOLESKY_HH

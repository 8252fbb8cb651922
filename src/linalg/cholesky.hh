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
 * Result of a rank-1 factor update or downdate.
 *
 * Downdating can legitimately fail — A - x x' need not be positive
 * definite — so the failure is an error *code*, not an exception: the
 * runtime refit path consumes it on every window and must stay
 * no-throw. On failure the factor is left exactly as it was.
 */
enum class UpdateStatus
{
    Ok,                 //!< Factor updated in place.
    NotPositiveDefinite //!< Result not SPD; factor left untouched.
};

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
 * skips the constructor's symmetry check, and runs a cache-blocked
 * right-looking factorization that is bitwise identical to the
 * constructor's naive left-looking one (per-entry increasing-k
 * update order is preserved).
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
     * Pre-size the internal buffers for an n x n factorization so a
     * later factorize(n x n) call does not allocate.
     */
    void reserve(std::size_t n);

    /**
     * Re-factor in place: factorize a + added_diag I, reusing the
     * existing storage (allocation-free after reserve()).
     *
     * Unlike the constructor this skips the symmetry check — the
     * caller guarantees an exactly symmetric a — and uses the
     * blocked kernel. The jitter retry schedule matches the
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

    /**
     * Install an externally produced lower-triangular factor L
     * directly (deserialization: a snapshot restores the factor a
     * rank-1 update sequence arrived at, which a refactorization of
     * the underlying matrix would only reproduce up to rounding).
     * The matrix must be square; its strict upper triangle is
     * ignored by every consumer.
     */
    void setFactor(Matrix l);

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
     * Computes K = L^-1 by cache-blocked panel substitution, then
     * A^-1 = K' K with a blocked multiply that skips K's structural
     * zero blocks. Bitwise identical to inverse() (same per-entry
     * accumulation order), several times faster at n ~ 1000, and
     * allocation-free once `ws` holds the scratch buffers (keys
     * "chol.*" — give each recurring inverseInto call site a
     * workspace of its own, or shapes will thrash).
     *
     * @param inv    Output buffer (re-shaped as needed).
     * @param ws     Scratch arena for the triangular-inverse panels.
     * @param mirror When false only inv's lower triangle is written
     *               (the upper triangle is unspecified), pairing
     *               with addScaledSymmetric consumers.
     */
    void inverseInto(Matrix &inv, Workspace &ws,
                     bool mirror = true) const;

    /**
     * Pre-acquire the "chol.*" scratch buffers an n x n inverseInto
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
     * In-place SPD solve: b <- A^-1 b. Bitwise identical to
     * solve(const Vector &) without the temporaries.
     */
    void solveInPlace(Vector &b) const;

    /**
     * In-place SPD solve on a matrix right-hand side: b <- A^-1 b.
     * solve(const Matrix &) is this applied to a copy.
     */
    void solveInPlace(Matrix &b) const;

    /**
     * Rank-1 update: replace the factor of A with the factor of
     * A + x x' in O(n^2) via Givens rotations (LINPACK dchud order),
     * instead of the O(n^3) refactorization. Allocation-free after
     * reserve(). A + x x' is SPD whenever A is, so this only reports
     * NotPositiveDefinite on non-finite input — in which case the
     * factor is left untouched.
     */
    UpdateStatus updateRank1(const Vector &x);

    /**
     * Rank-1 downdate: replace the factor of A with the factor of
     * A - x x' in O(n^2) via hyperbolic rotations.
     *
     * Unlike the update this can genuinely fail: A - x x' is SPD only
     * while x'A^-1 x < 1. The method first solves L p = x and checks
     * 1 - ||p||^2 > tol before touching the factor, and stashes the
     * factor so that even a rounding-induced mid-sweep breakdown
     * restores it bit-for-bit. On NotPositiveDefinite the factor is
     * therefore always exactly the pre-call factor — never NaN.
     * Allocation-free after reserve().
     *
     * @param x   Downdate direction.
     * @param tol Positivity margin required of 1 - ||L^-1 x||^2.
     */
    UpdateStatus downdateRank1(const Vector &x, double tol = 1e-12);

  private:
    /** Attempt the factorization; @return true on success. */
    bool tryFactor(const Matrix &a, double jitter);

    /**
     * Blocked right-looking variant of tryFactor (bitwise identical
     * result); reuses l_'s and panelT_'s storage.
     */
    bool tryFactorBlocked(const Matrix &a, double added_diag,
                          double jitter);

    Matrix l_;
    /** Transposed-panel scratch for the blocked factorization. */
    Matrix panelT_;
    /** Rotation scratch for updateRank1 / downdateRank1. */
    Vector upd_x_;
    /** Pre-downdate factor stash for exact failure rollback. */
    Matrix upd_stash_;
    double jitter_ = 0.0;
};

/**
 * Convenience wrapper: solve the SPD system A x = b once.
 */
Vector spdSolve(const Matrix &a, const Vector &b);

/**
 * Convenience wrapper: explicit SPD inverse.
 */
Matrix spdInverse(const Matrix &a);

} // namespace leo::linalg

#endif // LEO_LINALG_CHOLESKY_HH

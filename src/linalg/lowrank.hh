/**
 * @file
 * Low-rank basis and small dense kernels for the factored EM path.
 *
 * The estimator's low-rank representation writes the configuration
 * covariance as Sigma = alpha I + Q' C Q with Q an orthonormal basis
 * of the subspace actually touched by the data — the M prior shapes
 * plus one unit vector per observed configuration. Every EM quantity
 * then lives in q = rank(Q) dimensions (q ~ M + |Omega| << n), and
 * the Woodbury / matrix-inversion-lemma identities reduce each
 * O(n^3) step to O(q^3) (see DESIGN.md section 7.2).
 *
 * This header supplies the basis builder plus the handful of small
 * GEMM/GEMV kernels the q-dimensional iterations need. The kernels
 * are restrict-qualified and unrolled four wide: at q ~ 45 the
 * matrices fit in L1 and the only thing standing between the scalar
 * loop and SIMD is aliasing, so the kernels say there is none.
 */

#ifndef LEO_LINALG_LOWRANK_HH
#define LEO_LINALG_LOWRANK_HH

#include <cstddef>
#include <vector>

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::linalg
{

/**
 * An orthonormal basis of a low-dimensional subspace of R^n, grown
 * one vector at a time by modified Gram-Schmidt.
 *
 * Rows are stored contiguously (row k is basis vector k), so both
 * projection and expansion stream whole cache lines. Every append
 * runs the projection sweep twice ("twice is enough" — a single MGS
 * pass loses orthogonality exactly when a new vector nearly lies in
 * the current span, which is the common case here: application
 * shapes are strongly correlated). Vectors whose residual after
 * projection is below a relative drop tolerance are rejected, which
 * is how rank-deficient priors (duplicated shapes, repeated
 * observation indices) shrink q instead of poisoning the basis.
 */
class LowRankBasis
{
  public:
    /**
     * Start an empty basis over R^n with storage for up to max_rank
     * vectors (appends beyond max_rank are rejected).
     */
    void reset(std::size_t n, std::size_t max_rank);

    /** @return The ambient dimension n. */
    std::size_t dim() const { return n_; }

    /** @return The current rank q (number of basis vectors). */
    std::size_t size() const { return q_; }

    /**
     * Orthonormalize x against the basis and append the residual
     * direction.
     *
     * @return True if the vector added a new direction; false if it
     *         was (numerically) already in the span and was dropped.
     */
    bool appendVector(const Vector &x);

    /**
     * Append the coordinate direction e_j. Identical contract to
     * appendVector (drop tolerance 1e-10 on the residual norm), and
     * the same cost: e_j is staged as a dense n-vector and both MGS
     * sweeps run full dot products against every row, so an append
     * costs O(q n). The estimator no longer calls this — a fit
     * extends the shared prior block by its observed directions in
     * s dimensions instead (estimators/prior_basis.hh) — but the
     * per-append timing remains a useful reference point.
     */
    bool appendUnit(std::size_t j);

    /** @return Basis entry Q[k][j] (row k, component j). */
    double entry(std::size_t k, std::size_t j) const
    {
        return rows_.at(k, j);
    }

    /** Write coordinates c = Q x (length size()) into c. */
    void coordsInto(Vector &c, const Vector &x) const;

    /** Write the expansion x = Q' c (length dim()) into x. */
    void expandInto(Vector &x, const Vector &c) const;

    /** Copy the q live basis rows into `out` (re-shaped to q x n). */
    void rowsInto(Matrix &out) const;

  private:
    /** Storage: max_rank x n; rows [0, q_) hold the basis. */
    Matrix rows_;
    std::size_t n_ = 0;
    std::size_t q_ = 0;
};

/** Dot product of two contiguous length-n rows (four partial sums). */
double dotN(const double *a, const double *b, std::size_t n);

/** y += s x over contiguous length-n rows (y must not alias x). */
void axpyN(double *y, const double *x, double s, std::size_t n);

/**
 * out = a b' with both operands streamed along rows (a: r x k,
 * b: c x k, out: r x c). Four output columns share each a-row pass;
 * every entry accumulates in ascending k.
 */
void abtInto(Matrix &out, const Matrix &a, const Matrix &b);

/**
 * out = a' b accumulated as rank-1 row updates (a: k x r, b: k x c,
 * out: r x c); both operands stream along rows.
 */
void atbInto(Matrix &out, const Matrix &a, const Matrix &b);

/** y = a x (a: r x c, x: c, y: r; y must not alias x). */
void gemvInto(Vector &y, const Matrix &a, const Vector &x);

/** y = a' x (a: r x c, x: r, y: c; y must not alias x). */
void gemvTransInto(Vector &y, const Matrix &a, const Vector &x);

} // namespace leo::linalg

#endif // LEO_LINALG_LOWRANK_HH

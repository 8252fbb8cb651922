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
 * one vector at a time by classical Gram-Schmidt applied twice
 * (CGS2).
 *
 * Rows are stored contiguously (row k is basis vector k). Each
 * append runs two passes, and each pass is one product c = Q v and
 * one update v -= Q' c, both blocked four rows at a time, so a pass
 * streams the incoming vector twice per four rows instead of twice
 * per row. The second pass is what keeps the basis orthonormal ("twice
 * is enough"): one pass loses orthogonality exactly when a new
 * vector nearly lies in the current span, which is the common case
 * here, as application shapes are strongly correlated. Vectors whose
 * residual after projection is below a relative drop tolerance are
 * rejected, which is how rank-deficient priors (duplicated shapes,
 * repeated observation indices) shrink q instead of poisoning the
 * basis.
 *
 * Every append also leaves the vector's coefficient row behind
 * (coefficients()), so a caller gets the triangular factor of its
 * vectors, x_i = sum_k R_ik Q_k, without a second pass over them.
 */
class LowRankBasis
{
  public:
    /**
     * Start an empty basis over R^n with storage for up to max_rank
     * vectors (appends beyond max_rank are rejected and leave
     * coefficients() empty).
     */
    void reset(std::size_t n, std::size_t max_rank);

    /** @return The ambient dimension n. */
    std::size_t dim() const { return n_; }

    /** @return The current rank q (number of basis vectors). */
    std::size_t size() const { return q_; }

    /**
     * Orthonormalize x against the basis and append the residual
     * direction. A vector whose residual norm is at most 1e-10 of
     * its own norm adds no direction.
     *
     * @return True if the vector added a new direction; false if it
     *         was (numerically) already in the span and was dropped.
     */
    bool appendVector(const Vector &x);

    /**
     * Append the coordinate direction e_j: the same contract and the
     * same CGS2 passes as appendVector, with e_j staged as a dense
     * n-vector, so an append costs O(q n). The estimator does not
     * call this (a fit extends the shared prior block by its
     * observed directions in s dimensions, estimators/prior_basis.hh),
     * but the per-append timing remains a useful reference point.
     */
    bool appendUnit(std::size_t j);

    /**
     * @return The coefficient row of the last append, of length
     *  q + 1 for the rank q before it: entry k < q is the vector's
     *  coefficient on row k (both passes summed), entry q its
     *  residual norm. When the vector was kept, the residual is
     *  norm times the new row, so the row holds the vector's
     *  coordinates in the grown basis; when it was dropped, its
     *  first q entries are its coordinates in the unchanged one.
     */
    const Vector &coefficients() const { return coeffs_; }

    /** @return Basis entry Q[k][j] (row k, component j). */
    double entry(std::size_t k, std::size_t j) const
    {
        return rows_.at(k, j);
    }

    /**
     * Hand over the q live rows as a q x n matrix and leave the
     * basis empty (reset() it before reuse). The storage moves when
     * every slot was filled; only a rank-deficient basis copies its
     * rows out.
     */
    Matrix releaseRows();

  private:
    /** Run CGS2 on the vector staged in row slot q_ and keep it if
     *  it survives the drop test. */
    bool orthonormalizeStaged();

    /** Storage: max_rank x n; rows [0, q_) hold the basis. */
    Matrix rows_;
    /** Last append's coefficient row (length q + 1). */
    Vector coeffs_;
    /** The second pass's coefficients (length max_rank). */
    Vector second_;
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

/**
 * @file
 * The prior-invariant half of a LEO fit.
 *
 * The M - 1 fully profiled applications of Equation 2 are fixed
 * offline data, yet a low-rank fit needs them in a prepared form:
 * normalized to unit-mean shapes, orthonormalized over all n
 * configurations and expressed in that basis. PriorBasis does this
 * work once per metric and prior version, in one Gram-Schmidt
 * factorization that yields both the basis and the coefficients. Every fit against the same
 * prior shares it read-only and adds only its own s observed
 * directions, in s dimensions (DESIGN.md section 7.2). A fit holds
 * a std::shared_ptr to the basis it ran on (LeoFit::prior) in place
 * of a q x n basis of its own, so every fit-taking API passes bases
 * by shared_ptr, and a fit outlives whoever built its basis.
 *
 * The raw-vector LeoEstimator overloads build a PriorBasis and
 * delegate to the same path, so a fit through a shared basis is
 * bitwise equal to a fit from the raw prior vectors.
 */

#ifndef LEO_ESTIMATORS_PRIOR_BASIS_HH
#define LEO_ESTIMATORS_PRIOR_BASIS_HH

#include <cstddef>
#include <memory>
#include <vector>

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::telemetry
{
class ProfileStore;
}

namespace leo::estimators
{

/**
 * Normalized prior shapes, their orthonormal basis Q_p and their
 * coefficients in it. Immutable after construction, so one instance
 * may be shared read-only by concurrent fits; build it with
 * std::make_shared to hand it to them.
 */
class PriorBasis
{
  public:
    /**
     * Build from one metric's raw prior vectors, taken by value: a
     * caller that moves its vectors in has them normalized in place
     * and kept as shapes(), with no second copy of the prior. Counts
     * one leo.em.prior_basis.built and records a leo.em.prior_basis
     * span.
     *
     * @param prior Fully observed prior vectors (>= 1, equal length,
     *              positive means).
     * @throws leo::FatalError on an empty, ragged or non-positive
     *         prior.
     */
    explicit PriorBasis(std::vector<linalg::Vector> prior);

    /**
     * Build when possible. Returns null for an empty prior and for
     * one the basis cannot be built from; callers then fit from the
     * raw vectors, which degrade as DESIGN.md section 8 describes.
     */
    static std::shared_ptr<const PriorBasis> tryBuild(
        std::vector<linalg::Vector> prior);

    /** @return The configuration count n. */
    std::size_t dim() const { return n_; }

    /** @return The number of prior applications M. */
    std::size_t apps() const { return shapes_.size(); }

    /** @return The rank r of the prior block (r <= M). */
    std::size_t rank() const { return rows_.rows(); }

    /** @return The unit-mean shapes, bitwise equal to
     *  normalizeShapes(prior). */
    const std::vector<linalg::Vector> &shapes() const
    {
        return shapes_;
    }

    /** @return Q_p (r x n): orthonormal rows spanning the shapes,
     *  built with LowRankBasis::appendVector in shape order. */
    const linalg::Matrix &rows() const { return rows_; }

    /** @return R (M x r): row i holds the coefficients of x_i, the
     *  Gram-Schmidt factor x_i = sum_k R_ik (Q_p)_k. It is lower
     *  trapezoidal: entries right of the direction x_i added (or,
     *  for a shape dropped as dependent, right of the rows kept
     *  before it) are exactly zero. */
    const linalg::Matrix &coords() const { return coords_; }

    /** @return The mean of R's rows: the Offline cold init of mu,
     *  in Q_p coordinates. */
    const linalg::Vector &meanCoords() const { return mean_coords_; }

    /** @return sum_i (R_i - meanCoords())(R_i - meanCoords())'
     *  (r x r): the prior part of the Offline cold init of C. */
    const linalg::Matrix &residualGram() const { return resid_gram_; }

  private:
    std::size_t n_ = 0;
    std::vector<linalg::Vector> shapes_;
    linalg::Matrix rows_;
    linalg::Matrix coords_;
    linalg::Vector mean_coords_;
    linalg::Matrix resid_gram_;
};

/**
 * One prior version's bases, one per metric, shared read-only by
 * every controller and fit pinned to that version. A metric's basis
 * is null when its prior is empty or cannot be built; those fits take
 * the raw-vector path and degrade as DESIGN.md section 8 describes.
 */
struct PriorBases
{
    std::shared_ptr<const PriorBasis> perf;
    std::shared_ptr<const PriorBasis> power;

    /** Build both metrics' bases from a profile store (a prior they
     *  cannot be built from leaves them null; never a throw). */
    static std::shared_ptr<const PriorBases> build(
        const telemetry::ProfileStore &prior);
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_PRIOR_BASIS_HH

/**
 * @file
 * Scale normalization shared by the prior-based estimators.
 *
 * Applications report performance in their own heartbeat units (a
 * frame, a clustered sample, a serviced request), so the absolute
 * rates of different applications differ by orders of magnitude.
 * Sharing statistical strength across applications — the essence of
 * the hierarchical model — therefore happens in *shape* space: every
 * application vector is divided by its mean, estimation runs on the
 * normalized vectors, and the target's prediction is rescaled by the
 * mean of its own observed values. This is the raw-unit equivalent of
 * the paper's use of speedup for performance (Fig. 5). Note that the
 * accuracy metric of Equation (5) is invariant under common scaling,
 * so accuracies computed in raw units equal those computed on
 * speedups.
 */

#ifndef LEO_ESTIMATORS_NORMALIZATION_HH
#define LEO_ESTIMATORS_NORMALIZATION_HH

#include <vector>

#include "linalg/vector.hh"

namespace leo::estimators
{

/**
 * Divide each prior vector by its own mean, in place: a caller that
 * moves its vectors in gets them back normalized, without a copy.
 *
 * @param prior Fully observed application vectors.
 * @return The unit-mean shapes.
 */
std::vector<linalg::Vector> normalizeShapes(
    std::vector<linalg::Vector> prior);

/**
 * Average of unit-mean shapes, accumulated in order: the Offline
 * estimator's prediction and LEO's last-resort fallback.
 *
 * @param shapes normalizeShapes() output (>= 1 vector).
 */
linalg::Vector averageShape(const std::vector<linalg::Vector> &shapes);

/**
 * The target's scale anchor: the mean of its observed values.
 *
 * @param obs_vals Observed values (must be non-empty and positive
 *                 mean).
 * @return The anchor (divide observations by it; multiply
 *         predictions by it).
 */
double observedScale(const linalg::Vector &obs_vals);

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_NORMALIZATION_HH

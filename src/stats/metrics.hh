/**
 * @file
 * Estimation quality metrics.
 *
 * The headline metric is the paper's Equation (5):
 *
 *     accuracy(yhat, y) = max(1 - ||yhat - y||^2 / ||y - ybar||^2, 0)
 *
 * i.e. the coefficient of determination clamped at zero. Figures 5, 6
 * and 12 report exactly this quantity.
 */

#ifndef LEO_STATS_METRICS_HH
#define LEO_STATS_METRICS_HH

#include "linalg/vector.hh"

namespace leo::stats
{

/**
 * Accuracy of an estimate per Equation (5) of the paper.
 *
 * @param estimate Estimated vector yhat.
 * @param truth    True vector y.
 * @return max(1 - ||yhat-y||^2 / ||y-ybar||^2, 0), in [0, 1].
 */
double accuracy(const linalg::Vector &estimate,
                const linalg::Vector &truth);

} // namespace leo::stats

#endif // LEO_STATS_METRICS_HH

/**
 * @file
 * Implementation of the Offline baseline.
 */

#include "estimators/offline.hh"

#include "estimators/normalization.hh"
#include "estimators/sanitize.hh"
#include "linalg/error.hh"

namespace leo::estimators
{

linalg::Vector
OfflineEstimator::meanShape(const std::vector<linalg::Vector> &prior)
{
    require(!prior.empty(), "OfflineEstimator: no prior applications");
    return averageShape(normalizeShapes(prior));
}

MetricEstimate
OfflineEstimator::estimateMetric(
    const platform::ConfigSpace &space,
    const std::vector<linalg::Vector> &prior,
    const std::vector<std::size_t> &obs_idx,
    const linalg::Vector &obs_vals) const
{
    require(!prior.empty(), "OfflineEstimator: no prior applications");
    require(prior.front().size() == space.size(),
            "OfflineEstimator: prior/space size mismatch");

    linalg::Vector shape = meanShape(prior);

    // Sanitize the anchoring observations: a NaN or dropout reading
    // must not poison the scale (or throw out of observedScale).
    const SanitizedObservations clean =
        sanitizeObservations(obs_idx, obs_vals, space.size());
    const std::vector<std::size_t> &oidx =
        clean.modified ? clean.indices : obs_idx;
    const linalg::Vector &ovals = clean.modified ? clean.values : obs_vals;

    MetricEstimate est;
    est.samplesRejected = clean.rejected;
    est.reliable = true;
    if (!oidx.empty()) {
        // Anchor the unit-mean shape to the target's observed scale.
        const double target_scale = observedScale(ovals);
        const double shape_at_obs = shape.gather(oidx).mean();
        if (shape_at_obs > 0.0) {
            shape *= target_scale / shape_at_obs;
        } else {
            // Degenerate shape at the observed indices: keep the
            // unanchored shape rather than dividing by zero.
            est.reliable = false;
        }
    } else if (!obs_idx.empty()) {
        // Observations existed but none survived sanitization: the
        // scale anchor is gone.
        est.reliable = false;
    }
    est.values = std::move(shape);
    return est;
}

} // namespace leo::estimators

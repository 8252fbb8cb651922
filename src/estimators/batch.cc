/**
 * @file
 * Implementation of batch estimation.
 */

#include "estimators/batch.hh"

#include "parallel/parallel_for.hh"

namespace leo::estimators
{

std::vector<MetricEstimate>
EstimatorBatch::run(const platform::ConfigSpace &space)
{
    std::vector<EstimateRequest> requests = std::move(requests_);
    requests_.clear();
    std::vector<MetricEstimate> results(requests.size());
    // Shared bases and fit-out plumbing only exist on LeoEstimator;
    // other estimators silently take the plain interface.
    const auto *as_leo = dynamic_cast<const LeoEstimator *>(&estimator_);
    parallel::parallelFor(pool_, requests.size(), [&](std::size_t i) {
        const EstimateRequest &r = requests[i];
        if (as_leo == nullptr) {
            results[i] = estimator_.estimateMetric(
                space, r.prior, r.obsIndices, r.obsValues);
            return;
        }
        results[i] =
            r.priorBasis
                ? as_leo->estimateMetric(space, r.priorBasis,
                                         r.obsIndices, r.obsValues,
                                         /*ws=*/nullptr, r.fitOut)
                : as_leo->estimateMetric(space, r.prior, r.obsIndices,
                                         r.obsValues, /*ws=*/nullptr,
                                         r.fitOut);
    });
    return results;
}

} // namespace leo::estimators

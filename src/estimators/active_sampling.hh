/**
 * @file
 * Variance-guided active sampling.
 *
 * An extension beyond the paper's protocol (which samples uniformly
 * at random, Section 6.3): the hierarchical model's posterior
 * predictive variance says exactly where the estimate is least
 * certain, so the sampler can spend its measurement budget there.
 * Probes proceed in batches — seed with four random configurations,
 * fit, measure the four highest-variance unobserved configurations,
 * refit, repeat. Every round refits cold on one shared prior basis
 * through one workspace. The abl02_active_sampling bench quantifies
 * the accuracy gain over random sampling at equal budget.
 */

#ifndef LEO_ESTIMATORS_ACTIVE_SAMPLING_HH
#define LEO_ESTIMATORS_ACTIVE_SAMPLING_HH

#include <functional>

#include "estimators/leo.hh"
#include "telemetry/measurement.hh"

namespace leo::estimators
{

/**
 * Collects observations by maximizing posterior predictive variance.
 */
class VarianceGuidedSampler
{
  public:
    /** A measurement callback: run one window in a configuration. */
    using MeasureFn = std::function<telemetry::Sample(std::size_t)>;

    /**
     * Spend a measurement budget guided by the model.
     *
     * @param measure Callback that runs the target application in a
     *                configuration and returns the measured sample.
     * @param prior   Fully observed prior vectors for the metric that
     *                guides selection (typically performance).
     * @param budget  Total number of observations to take.
     * @param rng     Randomness for the seed probes.
     * @return All collected observations (|result| == budget, unless
     *         the space is smaller).
     * @throws leo::FatalError when the callback measures another
     *         configuration than asked, or returns a reading the
     *         controller would reject (a non-finite or non-positive
     *         rate or power).
     */
    telemetry::Observations collect(
        const MeasureFn &measure,
        const std::vector<linalg::Vector> &prior, std::size_t budget,
        stats::Rng &rng) const;
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_ACTIVE_SAMPLING_HH

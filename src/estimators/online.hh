/**
 * @file
 * The Online baseline of Section 6.2.
 *
 * "This strategy carries out polynomial multivariate regression on
 * the observed dataset using configuration values (the number of
 * cores, memory control and speed-settings) as predictors, and
 * estimates the rest of the datapoints based on the same model...
 * This method uses only the observations and not the prior data."
 */

#ifndef LEO_ESTIMATORS_ONLINE_HH
#define LEO_ESTIMATORS_ONLINE_HH

#include "estimators/estimator.hh"

namespace leo::estimators
{

/**
 * Degree-bounded multivariate polynomial regression over the raw
 * configuration knobs.
 *
 * With the evaluation platform's four knobs and the default total
 * degree 2 the design has C(4+2,2) = 15 features, so the fit is rank
 * deficient below 15 samples — exactly the failure mode Figure 12
 * attributes to the online method. In that regime the estimate falls
 * back to the observed mean and is flagged unreliable.
 */
class OnlineEstimator : public Estimator
{
  public:
    /** @param degree Total polynomial degree (default 2). */
    explicit OnlineEstimator(std::size_t degree = 2);

    std::string name() const override { return "online"; }

    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::vector<linalg::Vector> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals) const override;

  private:
    std::size_t degree_;
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_ONLINE_HH

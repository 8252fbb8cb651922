/**
 * @file
 * Multivariate normal utilities for the tests.
 *
 * The hierarchical model of Equation (2) is built entirely from
 * multivariate Gaussians. This module supplies sampling (used by the
 * property-based tests to generate data *from the model itself* and
 * check that EM recovers the generating parameters) and the dense
 * conditional-distribution identity the reference E-step of the test
 * oracle (leo_oracle.hh) relies on. The estimator itself runs every
 * step in the factored representation and needs neither.
 */

#ifndef LEO_TESTS_SUPPORT_MVN_HH
#define LEO_TESTS_SUPPORT_MVN_HH

#include <vector>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/vector.hh"
#include "stats/rng.hh"

namespace leo::support
{

/**
 * A multivariate normal N(mean, cov) with a cached Cholesky factor.
 */
class MultivariateNormal
{
  public:
    /**
     * @param mean Mean vector.
     * @param cov  Covariance (SPD; jitter is applied if borderline).
     */
    MultivariateNormal(linalg::Vector mean, const linalg::Matrix &cov);

    /** @return The dimension of the distribution. */
    std::size_t dim() const { return mean_.size(); }

    /** @return The mean vector. */
    const linalg::Vector &mean() const { return mean_; }

    /** Draw one sample x = mean + L u with u ~ N(0, I). */
    linalg::Vector sample(stats::Rng &rng) const;

    /** Log density at a point. */
    double logPdf(const linalg::Vector &x) const;

  private:
    linalg::Vector mean_;
    linalg::Cholesky chol_;
};

/**
 * Gaussian conditioning: the posterior of z ~ N(mu, Sigma) given noisy
 * observations y_obs = z[obs] + e, e ~ N(0, sigma^2 I).
 *
 * This is Equation (3) of the paper in its numerically efficient form:
 *
 *   E[z]  = mu + Sigma[:,obs] (Sigma[obs,obs] + sigma^2 I)^-1
 *                (y_obs - mu[obs])
 *   Cov[z] = Sigma - Sigma[:,obs] (Sigma[obs,obs] + sigma^2 I)^-1
 *                Sigma[obs,:]
 *
 * which is algebraically identical to the
 * (diag(L)/sigma^2 + Sigma^-1)^-1 form printed in the paper but costs
 * O(n^2 |obs|) instead of O(n^3).
 */
struct GaussianPosterior
{
    linalg::Vector mean;
    linalg::Matrix cov;
};

/**
 * Compute the Gaussian posterior above.
 *
 * @param mu       Prior mean (size n).
 * @param sigma_m  Prior covariance (n x n, SPD).
 * @param obs_idx  Indices of the observed coordinates.
 * @param y_obs    Observed values (size |obs_idx|).
 * @param noise_var Observation noise variance sigma^2.
 * @param want_cov When false, cov is left empty (cheaper).
 */
GaussianPosterior conditionOnObservations(
    const linalg::Vector &mu, const linalg::Matrix &sigma_m,
    const std::vector<std::size_t> &obs_idx, const linalg::Vector &y_obs,
    double noise_var, bool want_cov = true);

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_MVN_HH

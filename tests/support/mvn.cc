/**
 * @file
 * Implementation of the test multivariate normal utilities.
 */

#include "support/mvn.hh"

#include <cmath>
#include <numbers>

namespace leo::support
{

MultivariateNormal::MultivariateNormal(linalg::Vector mean,
                                       const linalg::Matrix &cov)
    : mean_(std::move(mean)), chol_(cov, 1e-8)
{
    require(mean_.size() == cov.rows(),
            "MultivariateNormal dimension mismatch");
}

linalg::Vector
MultivariateNormal::sample(stats::Rng &rng) const
{
    const std::size_t n = dim();
    linalg::Vector u(n);
    for (std::size_t i = 0; i < n; ++i)
        u[i] = rng.gaussian();
    // x = mean + L u.
    const linalg::Matrix &l = chol_.factor();
    linalg::Vector x = mean_;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j <= i; ++j)
            acc += l.at(i, j) * u[j];
        x[i] += acc;
    }
    return x;
}

double
MultivariateNormal::logPdf(const linalg::Vector &x) const
{
    require(x.size() == dim(), "logPdf dimension mismatch");
    const linalg::Vector d = x - mean_;
    const linalg::Vector w = chol_.solveLower(d);
    const double quad = w.squaredNorm();
    const double n = static_cast<double>(dim());
    return -0.5 * (n * std::log(2.0 * std::numbers::pi) +
                   chol_.logDet() + quad);
}

GaussianPosterior
conditionOnObservations(const linalg::Vector &mu,
                        const linalg::Matrix &sigma_m,
                        const std::vector<std::size_t> &obs_idx,
                        const linalg::Vector &y_obs, double noise_var,
                        bool want_cov)
{
    const std::size_t n = mu.size();
    const std::size_t s = obs_idx.size();
    require(sigma_m.rows() == n && sigma_m.cols() == n,
            "conditionOnObservations: covariance shape mismatch");
    require(y_obs.size() == s,
            "conditionOnObservations: observation shape mismatch");
    require(noise_var > 0.0,
            "conditionOnObservations: noise variance must be > 0");

    GaussianPosterior post;
    if (s == 0) {
        // Nothing observed: the posterior is the prior.
        post.mean = mu;
        if (want_cov)
            post.cov = sigma_m;
        return post;
    }

    // K = Sigma[obs, obs] + sigma^2 I   (s x s)
    linalg::Matrix k = sigma_m.gather(obs_idx);
    k.addToDiagonal(noise_var);
    linalg::Cholesky chol(k, 1e-8);

    // Residual r = y_obs - mu[obs].
    linalg::Vector r(s);
    for (std::size_t j = 0; j < s; ++j)
        r[j] = y_obs[j] - mu[obs_idx[j]];

    // alpha = K^-1 r.
    const linalg::Vector alpha = chol.solve(r);

    // Cross covariance Sigma[:, obs]  (n x s).
    linalg::Matrix cross(n, s);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < s; ++j)
            cross.at(i, j) = sigma_m.at(i, obs_idx[j]);

    post.mean = mu;
    for (std::size_t i = 0; i < n; ++i) {
        double acc = 0.0;
        for (std::size_t j = 0; j < s; ++j)
            acc += cross.at(i, j) * alpha[j];
        post.mean[i] += acc;
    }

    if (want_cov) {
        // Cov = Sigma - cross K^-1 cross'. Accumulate per observed
        // index so the inner loop streams along contiguous rows.
        const linalg::Matrix kinv_crosst = chol.solve(cross.transpose());
        post.cov = sigma_m;
        for (std::size_t t = 0; t < s; ++t) {
            for (std::size_t i = 0; i < n; ++i) {
                const double cit = cross.at(i, t);
                if (cit == 0.0)
                    continue;
                for (std::size_t j = 0; j < n; ++j)
                    post.cov.at(i, j) -= cit * kinv_crosst.at(t, j);
            }
        }
        post.cov.symmetrize();
    }
    return post;
}

} // namespace leo::support

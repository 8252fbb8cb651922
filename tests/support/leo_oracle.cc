/**
 * @file
 * Implementation of the reference EM loop.
 */

#include "support/leo_oracle.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>

#include "estimators/normalization.hh"
#include "linalg/cholesky.hh"
#include "linalg/error.hh"
#include "support/mvn.hh"

namespace leo::support
{

namespace
{

/** The estimator's sigma^2 floor (kMinSigma2 in estimators/leo.cc). */
constexpr double kMinSigma2 = 1e-8;

} // namespace

OracleFit
referenceFit(const estimators::LeoOptions &opt,
             const std::vector<linalg::Vector> &prior,
             const std::vector<std::size_t> &obs_idx_in,
             const linalg::Vector &obs_vals_in)
{
    using linalg::Matrix;
    using linalg::Vector;

    require(obs_idx_in.size() == obs_vals_in.size(),
            "referenceFit: observation index/value mismatch");
    const std::vector<Vector> shapes = estimators::normalizeShapes(prior);
    require(!shapes.empty(), "referenceFit: empty prior");
    const std::size_t n = shapes.front().size();
    for (const Vector &x : shapes)
        require(x.size() == n, "referenceFit: ragged prior");
    for (std::size_t idx : obs_idx_in)
        require(idx < n, "referenceFit: observation index out of range");

    // Observations in configuration-index order, repeated indices in
    // arrival order: the order the estimator fits them in. Ties break
    // on position instead of using std::stable_sort, whose temporary
    // buffer trips ASan's alloc-dealloc check against the test
    // binaries' operator-new hooks.
    std::vector<std::size_t> perm(obs_idx_in.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t a, std::size_t b) {
        return obs_idx_in[a] != obs_idx_in[b] ? obs_idx_in[a] < obs_idx_in[b]
                                              : a < b;
    });
    std::vector<std::size_t> obs_idx(perm.size());
    Vector obs_vals(perm.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
        obs_idx[k] = obs_idx_in[perm[k]];
        obs_vals[k] = obs_vals_in[perm[k]];
    }

    // ---- Normalization --------------------------------------------
    const std::size_t m_prior = shapes.size();
    const std::size_t s = obs_idx.size();
    const bool have_obs = s > 0;
    const double scale = have_obs ? estimators::observedScale(obs_vals)
                                  : 1.0;
    Vector x_obs(s);
    for (std::size_t j = 0; j < s; ++j)
        x_obs[j] = obs_vals[j] / scale;
    // Total applications M: priors plus (when observed) the target.
    const double mp = static_cast<double>(m_prior);
    const double m_total = mp + (have_obs ? 1.0 : 0.0);

    // ---- Cold initialization (Section 5.5: offline init helps) -----
    Vector mu(n, 0.0);
    if (opt.init == estimators::EmInit::Offline) {
        for (const Vector &x : shapes)
            mu += x;
        mu /= mp;
    }
    Matrix resid(m_prior, n);
    for (std::size_t i = 0; i < m_prior; ++i)
        for (std::size_t j = 0; j < n; ++j)
            resid.at(i, j) = shapes[i][j] - mu[j];
    Matrix sigma_m = Matrix::gram(resid);
    sigma_m += opt.hyperPi * Matrix::outer(mu, mu);
    sigma_m.addToDiagonal(opt.hyperPsiScale);
    sigma_m /= m_total + 1.0;
    double sigma2 = opt.initSigma2;

    // ---- EM iterations --------------------------------------------
    OracleFit fit;
    fit.scale = scale;
    GaussianPosterior target_post;
    target_post.mean = mu;
    Vector prev_pred = mu;
    const double total_obs = static_cast<double>(m_prior * n + s);
    const double log2pi = std::log(2.0 * std::numbers::pi);

    for (std::size_t iter = 0; iter < opt.maxIterations; ++iter) {
        fit.iterations = iter + 1;

        // E-step, fully observed applications (shared algebra):
        //   C_full = sigma^2 I - sigma^4 (Sigma + sigma^2 I)^-1
        //   z_i    = x_i - sigma^2 (Sigma + sigma^2 I)^-1 (x_i - mu)
        Matrix a = sigma_m;
        a.addToDiagonal(sigma2);
        const linalg::Cholesky chol(a, 1e-6);
        const Matrix inv = chol.inverse();
        std::vector<Vector> z(m_prior);
        Vector ll_quad(m_prior);
        for (std::size_t i = 0; i < m_prior; ++i) {
            const Vector d = shapes[i] - mu;
            const Vector w = inv * d;
            ll_quad[i] = linalg::dot(d, w);
            z[i] = shapes[i] - sigma2 * w;
        }

        // Marginal log-likelihood of everything observed under the
        // current theta: fully observed apps are N(mu, Sigma +
        // sigma^2 I); the target contributes its Omega marginal.
        double ll = -0.5 * mp *
                    (static_cast<double>(n) * log2pi + chol.logDet());
        for (std::size_t i = 0; i < m_prior; ++i)
            ll -= 0.5 * ll_quad[i];
        if (have_obs) {
            Matrix a_obs = sigma_m.gather(obs_idx);
            a_obs.addToDiagonal(sigma2);
            const linalg::Cholesky chol_obs(a_obs, 1e-8);
            Vector d(s);
            for (std::size_t j = 0; j < s; ++j)
                d[j] = x_obs[j] - mu[obs_idx[j]];
            const Vector w = chol_obs.solveLower(d);
            ll -= 0.5 * (static_cast<double>(s) * log2pi +
                         chol_obs.logDet() + w.squaredNorm());
        }
        fit.logLikelihoodTrace.push_back(ll);

        // E-step, target application (sparse observations).
        if (have_obs)
            target_post = conditionOnObservations(mu, sigma_m, obs_idx,
                                                  x_obs, sigma2, true);

        // M-step: mu (Equation 4, mu_0 = 0).
        Vector mu_new(n, 0.0);
        for (const Vector &zi : z)
            mu_new += zi;
        if (have_obs)
            mu_new += target_post.mean;
        mu_new /= m_total + opt.hyperPi;

        // M-step: Sigma (Equation 4; Psi and pi mu mu' normalized
        // inside the bracket per Yu et al. '05 — see DESIGN.md).
        // sum_i C_i over the fully observed apps is m_prior * C_full.
        Matrix s_accum(n, n, 0.0);
        s_accum += (-sigma2 * sigma2 * mp) * inv;
        s_accum.addToDiagonal(sigma2 * mp);
        if (have_obs)
            s_accum += target_post.cov;
        Matrix zres(m_prior, n);
        for (std::size_t i = 0; i < m_prior; ++i)
            for (std::size_t j = 0; j < n; ++j)
                zres.at(i, j) = z[i][j] - mu_new[j];
        s_accum += Matrix::gram(zres);
        if (have_obs) {
            const Vector d = target_post.mean - mu_new;
            s_accum += Matrix::outer(d, d);
        }
        s_accum += opt.hyperPi * Matrix::outer(mu_new, mu_new);
        s_accum.addToDiagonal(opt.hyperPsiScale);
        s_accum /= m_total + 1.0;
        s_accum.symmetrize();

        // M-step: sigma^2 (Equation 4). Fully observed apps
        // contribute every configuration, the target only its
        // observed ones.
        double noise_accum = 0.0;
        for (std::size_t i = 0; i < m_prior; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const double cjj = sigma2 - sigma2 * sigma2 * inv.at(j, j);
                const double r = z[i][j] - shapes[i][j];
                noise_accum += cjj + r * r;
            }
        }
        if (have_obs) {
            for (std::size_t j = 0; j < s; ++j) {
                const std::size_t idx = obs_idx[j];
                const double r = target_post.mean[idx] - x_obs[j];
                noise_accum += target_post.cov.at(idx, idx) + r * r;
            }
        }
        const double sigma2_new =
            std::max(noise_accum / total_obs, kMinSigma2);

        // Convergence on the target prediction, as in the estimator.
        const Vector &pred = have_obs ? target_post.mean : mu_new;
        const double dpred =
            (pred - prev_pred).norm() / (prev_pred.norm() + 1e-12);
        prev_pred = pred;

        mu = std::move(mu_new);
        sigma_m = std::move(s_accum);
        sigma2 = sigma2_new;

        if (dpred < opt.tolerance) {
            fit.converged = true;
            break;
        }
    }

    // ---- Prediction -----------------------------------------------
    // Final E-step for the target under the fitted parameters; the
    // prediction is E[z_M | theta-hat] rescaled to raw units.
    if (have_obs) {
        target_post = conditionOnObservations(mu, sigma_m, obs_idx, x_obs,
                                              sigma2, true);
    } else {
        target_post.mean = mu;
        target_post.cov = sigma_m;
    }
    fit.prediction = Vector(n);
    fit.predictionVariance = Vector(n);
    for (std::size_t j = 0; j < n; ++j) {
        fit.prediction[j] = std::max(target_post.mean[j] * scale, 0.0);
        fit.predictionVariance[j] =
            (target_post.cov.at(j, j) + sigma2) * scale * scale;
    }
    fit.sigma = std::move(sigma_m);
    fit.sigma2 = sigma2;
    return fit;
}

} // namespace leo::support

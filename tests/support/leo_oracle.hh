/**
 * @file
 * The reference EM loop: the test oracle of the LEO estimator.
 *
 * A straightforward, serial transcription of Equations (3)-(4) on the
 * dense n x n covariance: allocating temporaries every iteration,
 * conditioning through the Gaussian identity of mvn.hh, and no
 * instrumentation. It fits the same model as the factored loop in
 * src/estimators/leo.cc (same normalization, observation order, cold
 * init, convergence rule and hyper-parameters), so the two agree to
 * accumulated rounding; tests/lowrank_test.cc pins the bounds.
 *
 * O(n^3) per iteration: meant for the test spaces (n up to ~1000).
 */

#ifndef LEO_TESTS_SUPPORT_LEO_ORACLE_HH
#define LEO_TESTS_SUPPORT_LEO_ORACLE_HH

#include <cstddef>
#include <vector>

#include "estimators/leo.hh"
#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::support
{

/** Output of one reference fit: the dense counterpart of LeoFit. */
struct OracleFit
{
    /** Predicted values in raw units, every configuration. */
    linalg::Vector prediction;
    /** Posterior predictive variance (raw units squared). */
    linalg::Vector predictionVariance;
    /** Fitted covariance Sigma (n x n, normalized space). */
    linalg::Matrix sigma;
    /** Fitted noise variance sigma^2 (normalized space). */
    double sigma2 = 0.0;
    /** EM iterations executed. */
    std::size_t iterations = 0;
    /** True iff the tolerance was met before maxIterations. */
    bool converged = false;
    /** Marginal log-likelihood at the start of each iteration. */
    std::vector<double> logLikelihoodTrace;
    /** Scale anchor used to de-normalize the prediction. */
    double scale = 1.0;
};

/**
 * Fit one metric cold with the reference loop.
 *
 * Reads opt.init, hyperPi, hyperPsiScale, maxIterations, tolerance
 * and initSigma2, and floors sigma^2 at the estimator's 1e-8; the
 * remaining options do not apply.
 *
 * @param prior    Fully observed prior vectors (>= 1).
 * @param obs_idx  Observed target indices (may be empty).
 * @param obs_vals Observed target values.
 * @throws leo::FatalError on malformed inputs.
 */
OracleFit referenceFit(const estimators::LeoOptions &opt,
                       const std::vector<linalg::Vector> &prior,
                       const std::vector<std::size_t> &obs_idx,
                       const linalg::Vector &obs_vals);

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_LEO_ORACLE_HH

/**
 * @file
 * LEO: the hierarchical Bayesian estimator (Sections 5.2-5.4).
 *
 * The generative model (Equation 2):
 *
 *     y_i | z_i        ~  N(z_i, sigma^2 I)          (filtration layer)
 *     z_i | mu, Sigma  ~  N(mu, Sigma)               (application layer)
 *     mu, Sigma        ~  NIW(mu_0, pi, Psi, nu)     (hyper prior)
 *
 * with hyper-parameters mu_0 = 0, pi = 1, Psi = psi I, nu = 1. The
 * first M-1 applications are fully observed offline; the target
 * application M is observed at a small index set Omega_M. EM
 * alternates the E-step of Equation (3) with the M-step of
 * Equation (4) and predicts y_M as E[z_M | theta-hat].
 *
 * Implementation notes (see DESIGN.md for the full discussion):
 *  - The E-step uses the Gaussian-conditioning form of Equation (3)
 *    (identical algebra, O(n^2 |Omega|) instead of O(n^3) per
 *    application), and the fully-observed applications share one
 *    matrix inverse per iteration.
 *  - Estimation runs on mean-normalized vectors so applications with
 *    different heartbeat units share statistical strength; the
 *    prediction is rescaled by the target's observed mean
 *    (normalization.hh).
 *  - Following Section 5.5, mu is initialized from the Offline
 *    estimate, and convergence typically takes 3-4 iterations.
 *  - The prior-invariant half of a fit (normalized shapes, their
 *    orthonormal basis and coordinates) is a PriorBasis, built once
 *    per prior and shared by every fit against it
 *    (prior_basis.hh).
 */

#ifndef LEO_ESTIMATORS_LEO_HH
#define LEO_ESTIMATORS_LEO_HH

#include <memory>
#include <vector>

#include "estimators/estimator.hh"
#include "estimators/prior_basis.hh"
#include "linalg/matrix.hh"
#include "linalg/workspace.hh"
#include "parallel/thread_pool.hh"

namespace leo::estimators
{

/**
 * Test hook: register a monotone heap-allocation counter (e.g. backed
 * by an operator-new override in the test binary). When set,
 * LeoFit::loopAllocations reports the number of allocations performed
 * inside the EM iteration loop. Pass nullptr to clear. Not
 * thread-safe against concurrent fits; intended for tests only.
 */
void setAllocationCounter(std::size_t (*counter)());

/** How the EM's mu is initialized (Section 5.5 discussion). */
enum class EmInit
{
    Offline, //!< Mean of the prior shapes (the paper's recommendation).
    Zero     //!< mu_0 = 0; slower, used by the init ablation bench.
};

/**
 * How the configuration covariance Sigma is represented during EM.
 *
 * The dense representation carries the full n x n matrix and is the
 * executable specification. The low-rank representation writes
 * Sigma = alpha I + Q' C Q with Q an orthonormal basis of the
 * subspace spanned by the prior shapes and the observed coordinate
 * directions (q = rank(Q) <= M + |Omega| << n), and runs every EM
 * step in q dimensions via the Woodbury identity — the same model,
 * evaluated in a different parameterization, so results agree with
 * the dense path to rounding (see DESIGN.md section 7.2).
 */
enum class CovarianceRep
{
    Dense,   //!< Full n x n Sigma (bitwise-stable reference behavior).
    LowRank, //!< Factored alpha I + Q' C Q; O(n q^2) per iteration.
    Auto     //!< LowRank when 4 (M + |Omega| + 1) <= n, else Dense.
};

/** Tunable knobs of the LEO estimator. */
struct LeoOptions
{
    /** EM initialization strategy. */
    EmInit init = EmInit::Offline;
    /** NIW precision-scale hyper-parameter pi (paper: 1). */
    double hyperPi = 1.0;
    /** NIW scale matrix Psi = hyperPsiScale * I. The paper sets
     *  Psi = I in raw units; in normalized (unit-mean) space the
     *  equivalent gentle regularizer is smaller. */
    double hyperPsiScale = 0.02;
    /** Maximum EM iterations (Section 5.5: 3-4 suffice in practice). */
    std::size_t maxIterations = 4;
    /** Relative-change convergence tolerance on mu and sigma^2. */
    double tolerance = 1e-2;
    /** Initial observation-noise variance (normalized space). */
    double initSigma2 = 1e-2;
    /** Floor on sigma^2 to keep the E-step well posed. */
    double minSigma2 = 1e-8;
    /**
     * Threads the EM fit may use. 0 = the process-wide shared pool
     * (sized from LEO_THREADS or hardware concurrency), 1 = strictly
     * serial, N > 1 = a private pool with N - 1 workers plus the
     * caller. The fit is bitwise identical for every value — the
     * parallel reductions use thread-count-independent chunking and
     * a fixed combine tree (see parallel/parallel_for.hh).
     */
    std::size_t threads = 0;
    /**
     * Opt into the straightforward reference implementation of the
     * EM loop (allocating temporaries each iteration, naive kernels).
     * The default workspace path is bitwise identical to it — the
     * estimator tests assert exact equality — just allocation-free
     * and considerably faster at large n. Kept as the executable
     * specification of the fit.
     */
    bool referencePath = false;
    /**
     * Covariance representation (see CovarianceRep). Dense keeps the
     * historical bitwise-stable behavior and remains the default;
     * LowRank trades 0-ULP reproducibility of the dense path for
     * O(n q^2) iterations; Auto picks LowRank exactly when the rank
     * bound q = M + |Omega| + 1 satisfies 4 q <= n. referencePath
     * forces Dense (the reference loop is the dense specification).
     */
    CovarianceRep representation = CovarianceRep::Dense;
    /**
     * When false, low-rank fits skip materializing the n-vector
     * predictionVariance (the q x q posterior core is still stored in
     * LeoFit::varCore, and lowRankPredictiveVariance() evaluates any
     * single entry on demand). Saves an O(n q) expansion per fit for
     * callers — the variance-guided sampler, the serving core — that
     * only ever query a handful of candidate configurations. Dense
     * fits ignore the flag.
     */
    bool expandVariance = true;
};

/** Full output of one EM fit (one metric). */
struct LeoFit
{
    /** Predicted values in raw units, every configuration. */
    linalg::Vector prediction;
    /** Posterior predictive variance (raw units squared). */
    linalg::Vector predictionVariance;
    /** Fitted mean mu (normalized space). */
    linalg::Vector mu;
    /** Fitted configuration covariance Sigma (normalized space);
     *  this is the matrix visualized in Figure 4. */
    linalg::Matrix sigma;
    /** Fitted noise variance sigma^2 (normalized space). */
    double sigma2 = 0.0;
    /** EM iterations executed. */
    std::size_t iterations = 0;
    /** True iff the tolerance was met before maxIterations. */
    bool converged = false;
    /** Marginal log-likelihood of the observed data under theta at
     *  the start of each iteration (monotone non-decreasing up to
     *  the MAP prior terms — a standard EM diagnostic). */
    std::vector<double> logLikelihoodTrace;
    /** Scale anchor used to de-normalize the prediction. */
    double scale = 1.0;
    /** True iff this fit was initialized from a previous fit's
     *  parameters rather than the cold Offline/Zero init. */
    bool warmStarted = false;
    /** Heap allocations observed inside the EM iteration loop when a
     *  counter is registered via setAllocationCounter (0 otherwise).
     *  The workspace path keeps this at zero. */
    std::size_t loopAllocations = 0; // leo-lint: allow(snapshot-completeness) diagnostic counter, not model state
    /** True iff this fit used the low-rank representation. Low-rank
     *  fits leave `sigma` empty (at n = 16384 the dense matrix would
     *  be 2 GB) and carry Sigma factored in the three fields below:
     *  Sigma = alphaDiag I + basisT' coeff basisT. */
    bool lowRank = false;
    /** Low-rank basis Q, stored row-major q x n (row k = basis
     *  vector k); empty on dense fits. */
    linalg::Matrix basisT;
    /** Low-rank core C (q x q, symmetric); empty on dense fits. */
    linalg::Matrix coeff;
    /** Isotropic diagonal term alpha of the factored Sigma. */
    double alphaDiag = 0.0;
    /** Posterior covariance core Ct (q x q) of the final E-step, so
     *  the predictive variance of configuration c is
     *  (alphaDiag + q_c' Ct q_c + sigma2) * scale^2 with q_c = column
     *  c of basisT (see lowRankPredictiveVariance). Empty on dense
     *  fits. */
    linalg::Matrix varCore;

    /**
     * Streaming predictive-variance query: the posterior predictive
     * variance of one configuration, in raw units squared. Reads the
     * expanded predictionVariance when present and otherwise
     * evaluates the low-rank factors directly (no q x n expansion),
     * so callers — schedule-time uncertainty displays, the
     * controller's residual standardization — can query single
     * configurations off an expandVariance = false fit at O(q^2)
     * cost. Bitwise identical to predictionVariance[c] whichever
     * path answers.
     *
     * @param c Configuration index.
     * @throws leo::FatalError when c is out of range or the fit
     *         carries no variance information at all.
     */
    double predictiveVarianceAt(std::size_t c) const;
};

/**
 * Predictive variance of one configuration from a low-rank fit's
 * factored posterior, without expanding the full n-vector: evaluates
 * (alphaDiag + q_c' varCore q_c + sigma2) * scale^2 with the same
 * increasing-index accumulation order as the expanded
 * predictionVariance fill, so the result is bitwise identical to
 * fit.predictionVariance[c].
 *
 * @param fit A low-rank fit (fit.lowRank, non-empty varCore).
 * @param c   Configuration index (column of basisT).
 */
double lowRankPredictiveVariance(const LeoFit &fit, std::size_t c);

/**
 * The LEO estimator.
 */
class LeoEstimator : public Estimator
{
  public:
    /** @param options Tunable knobs (defaults follow the paper). */
    explicit LeoEstimator(LeoOptions options = LeoOptions{});

    std::string name() const override { return "leo"; }

    /** @return The options in use. */
    const LeoOptions &options() const { return options_; }

    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::vector<linalg::Vector> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals) const override;

    /**
     * Warm-refit variant of estimateMetric for incremental callers
     * (active sampling, the runtime controller): same result contract,
     * plus workspace reuse and warm starting across calls.
     *
     * @param ws      Scratch arena reused across calls (may be null).
     * @param warm    Previous fit on the same space to start EM from
     *                (may be null; invalid fits fall back to cold).
     * @param fit_out When non-null, receives the full fit so the
     *                caller can warm-start the next call.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::vector<linalg::Vector> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out = nullptr) const;

    /**
     * Representation-override variant: identical to the warm-refit
     * overload, but dispatches dense/low-rank from `rep` instead of
     * options().representation. Lets one shared estimator serve
     * callers whose resolved representation differs per request (the
     * multi-tenant service batches tenants with per-tenant Auto
     * resolutions through a single estimator); passing
     * options().representation is bitwise identical to the 7-argument
     * overload. The ridge-retry fallback keeps the same override.
     *
     * Builds a PriorBasis from `prior` and runs the shared-basis
     * overload below, so both produce the same bits.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::vector<linalg::Vector> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out, CovarianceRep rep) const;

    /**
     * Shared-basis variant: the representation-override overload
     * with the prior-invariant work already done. `prior` is only
     * read, so one basis may serve concurrent fits.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space, const PriorBasis &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out, CovarianceRep rep) const;

    /**
     * Run the full EM fit for one metric and return everything
     * (prediction, fitted parameters, diagnostics). Observations are
     * fitted in configuration-index order whatever order they arrive
     * in, so a permuted set fits to the same bits.
     *
     * @param prior    Fully observed prior vectors (>= 1).
     * @param obs_idx  Observed target indices (may be empty, in which
     *                 case the fit degenerates to the offline shape).
     * @param obs_vals Observed target values.
     */
    LeoFit fitMetric(const std::vector<linalg::Vector> &prior,
                     const std::vector<std::size_t> &obs_idx,
                     const linalg::Vector &obs_vals) const;

    /**
     * Workspace-and-warm-start variant of fitMetric.
     *
     * With a persistent `ws` the EM iteration loop performs no heap
     * allocations (buffers are acquired up front and reused across
     * calls), and with a valid `warm` fit the EM starts from the
     * previous theta instead of the cold init — typically converging
     * in 1-2 iterations instead of 3-4 on incremental refits. A warm
     * fit whose shapes don't match this problem (or whose parameters
     * are not finite) is silently ignored.
     *
     * Identical theta-zero implies identical output bits: warm fits
     * differ from cold fits only through the initialization.
     *
     * @param ws   Scratch arena (null = a fit-local arena).
     * @param warm Previous LeoFit to start from (null = cold init).
     */
    LeoFit fitMetric(const std::vector<linalg::Vector> &prior,
                     const std::vector<std::size_t> &obs_idx,
                     const linalg::Vector &obs_vals,
                     linalg::Workspace *ws, const LeoFit *warm) const;

    /** Shared-basis variant of the workspace-and-warm-start
     *  fitMetric; bitwise equal to it for the same prior. */
    LeoFit fitMetric(const PriorBasis &prior,
                     const std::vector<std::size_t> &obs_idx,
                     const linalg::Vector &obs_vals,
                     linalg::Workspace *ws, const LeoFit *warm) const;

  private:
    /**
     * The one estimate path behind the public overloads, traced as a
     * whole by the leo.em.fit span: sanitize and order the
     * observations, build a basis from `raw` unless `shared` is
     * given, fit, and degrade along DESIGN.md section 8 on failure.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space, const PriorBasis *shared,
        const std::vector<linalg::Vector> &raw,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out, CovarianceRep rep) const;

    /** The fit itself (validate, order, dispatch dense/low-rank on
     *  `rep`), without the span. */
    LeoFit fitWith(const PriorBasis &prior,
                   const std::vector<std::size_t> &obs_idx,
                   const linalg::Vector &obs_vals,
                   linalg::Workspace *ws, const LeoFit *warm,
                   CovarianceRep rep) const;

    /** The pool the fit fans across, per options_.threads. */
    parallel::ThreadPool &pool() const;

    LeoOptions options_;
    /** Private pool when options_.threads > 1 (built eagerly in the
     *  constructor so concurrent fits never race on creation). */
    std::unique_ptr<parallel::ThreadPool> pool_;
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_LEO_HH

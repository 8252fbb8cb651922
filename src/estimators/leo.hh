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
 *  - Sigma is carried factored, Sigma = alpha I + Q' C Q with Q an
 *    orthonormal basis of the prior shapes and the observed
 *    coordinate directions (q = rank(Q) <= M + |Omega|, and q <= n).
 *    Every E- and M-step runs in q dimensions through the Woodbury
 *    identity (DESIGN.md section 7.2); the fit is serial.
 *  - Estimation runs on mean-normalized vectors so applications with
 *    different heartbeat units share statistical strength; the
 *    prediction is rescaled by the target's observed mean
 *    (normalization.hh).
 *  - Following Section 5.5, mu is initialized from the Offline
 *    estimate, and convergence typically takes 3-4 iterations.
 *  - The prior-invariant half of a fit (normalized shapes, their
 *    orthonormal basis and coordinates) is a PriorBasis, built once
 *    per prior and shared by every fit against it
 *    (prior_basis.hh). A fit keeps a shared reference to it and its
 *    own observed block in s dimensions (KeptBlock), never a q x n
 *    basis.
 */

#ifndef LEO_ESTIMATORS_LEO_HH
#define LEO_ESTIMATORS_LEO_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "estimators/estimator.hh"
#include "estimators/prior_basis.hh"
#include "linalg/matrix.hh"
#include "linalg/workspace.hh"

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
 * The covariance representation of a fit. The factored
 * Sigma = alpha I + Q' C Q of DESIGN.md section 7.2 is the only one,
 * so Auto is the only value.
 *
 * Kept only because perfbench/ compiles against it.
 */
enum class CovarianceRep
{
    Auto
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
    /** No effect: a fit is serial, and batches fan out instead
     *  (EstimatorBatch). Kept only because perfbench/ sets it. */
    std::size_t threads = 0;
};

/**
 * The observed block of a fit's basis Q = [Q_p; Q_o], kept in s
 * dimensions (DESIGN.md section 7.2). Its rows are
 * Q_o = L_k^-1 (E_k' - W_k Q_p), with E_k the unit vectors of the kept
 * configurations, and are never formed on the fit path: the
 * prediction and mu expand through W_k and L_k, and single columns of
 * Q come from the column evaluator behind predictiveVarianceAt.
 */
struct KeptBlock
{
    /** The configuration behind each observed direction, ascending:
     *  the observed units that the prior block and the earlier units
     *  do not already span. */
    std::vector<std::size_t> units;
    /** W_k (kept x r): row c holds Q_p e_{units[c]}. */
    linalg::Matrix w;
    /** L_k (kept x kept, lower triangular): the Schur factor of the
     *  kept units' residual Gram matrix I - W_k W_k'. */
    linalg::Matrix l;
};

/** Full output of one EM fit (one metric). */
struct LeoFit
{
    /** Predicted values in raw units, every configuration. */
    linalg::Vector prediction;
    /** Fitted mean mu (normalized space). */
    linalg::Vector mu;
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
     *  The fit keeps this at zero. */
    std::size_t loopAllocations = 0; // leo-lint: allow(snapshot-completeness) diagnostic counter, not model state
    /** The prior basis the fit ran on, shared with every fit on that
     *  prior version: its rows are Q_p, the leading block of the
     *  fit's basis Q (null for a fit without factors). */
    std::shared_ptr<const PriorBasis> prior;
    /** The observed block of Q in s dimensions. Sigma (normalized
     *  space) is carried factored, Sigma = alphaDiag I + Q' coeff Q
     *  with Q = [Q_p; Q_o] (rank() x n): no fit holds Q or the dense
     *  Sigma (2 GB at n = 16384); basis() and covariance()
     *  materialize them for inspection. */
    KeptBlock kept;
    /** The distinct observed configurations, ascending (at most one
     *  per observation), that the kept block was factored from. With
     *  the prior basis they determine it bit for bit
     *  (observedFactors), so a saved fit stores them in its place
     *  (fit_io.hh). */
    std::vector<std::size_t> observedUnits;
    /** PriorBasis::fingerprint() of the prior basis the fit ran on
     *  (0 for a fit without factors). */
    std::uint64_t priorFingerprint = 0;
    /** Core C (q x q, symmetric). */
    linalg::Matrix coeff;
    /** Isotropic diagonal term alpha of the factored Sigma. */
    double alphaDiag = 0.0;
    /** Posterior covariance core Ct (q x q) of the final E-step, so
     *  the predictive variance of configuration c is
     *  (alphaDiag + q_c' Ct q_c + sigma2) * scale^2 with q_c = column
     *  c of Q (see predictiveVarianceAt). */
    linalg::Matrix varCore;

    /** @return The rank q of the factored Sigma: the order of coeff
     *  (0 for a fit without factors). */
    std::size_t rank() const { return coeff.rows(); }

    /**
     * The basis Q = [Q_p; Q_o] (q x n), row-major, materialized from
     * the prior rows and the kept block: each column is the column
     * evaluator's (observedBasis). O(n (kept r + kept^2)); no fit
     * path forms it.
     *
     * @throws leo::FatalError when the fit carries no factors.
     */
    linalg::Matrix basis() const;

    /**
     * The fitted covariance Sigma = alphaDiag I + Q' coeff Q as a
     * dense, exactly symmetric n x n matrix (normalized space): the
     * matrix visualized in Figure 4. O(n^2 q); meant for inspection,
     * never for the fit path.
     *
     * @throws leo::FatalError when the factors are missing or their
     *         shapes disagree.
     */
    linalg::Matrix covariance() const;

    /**
     * The posterior predictive variance of one configuration, in raw
     * units squared: (alphaDiag + q_c' varCore q_c + sigma2) * scale^2
     * with q_c = column c of Q, evaluated from the factors at
     * O(q^2 + kept r + kept^2) per query. This is the only way to read
     * a fit's variance; no fit expands it over all n configurations.
     * Each value equals the diagonal entry of that full expansion
     * against basis() bit for bit.
     *
     * @param c Configuration index (column of Q).
     * @throws leo::FatalError when c is out of range or the fit
     *         carries no varCore of the basis's rank.
     */
    double predictiveVarianceAt(std::size_t c) const;
};

/**
 * The kept block of a fit on `prior` whose distinct observed
 * configurations are `units`, ascending as LeoFit::observedUnits holds
 * them, factored in s dimensions (DESIGN.md section 7.2). The fit
 * factors its own block through the same code, so for a fit's own
 * units the result equals its kept block bit for bit; loadFit
 * rebuilds saved fits this way.
 *
 * @throws leo::FatalError when a unit is not below prior.dim().
 */
KeptBlock observedFactors(const PriorBasis &prior,
                          const std::vector<std::size_t> &units);

/**
 * The basis Q = [Q_p; Q_o] (q x n) of a kept block on `prior`: the
 * prior rows, then one column of Q_o at a time from the column
 * evaluator that predictiveVarianceAt reads, so every entry matches
 * the value a variance query sees bit for bit.
 *
 * @throws leo::FatalError when the block's shapes disagree with
 *         `prior`.
 */
linalg::Matrix observedBasis(const PriorBasis &prior,
                             const KeptBlock &kept);

/**
 * x = Q' t (length n) for coordinates t (length q) in the basis
 * Q = [Q_p; Q_o] of a kept block on `prior`, without forming Q_o:
 * Q' t = Q_p' (t_p - W_k' y) + E_k y with y = L_k^-T t_o, one pass
 * over the prior rows plus a scatter of the kept values. Fits expand
 * their prediction and mu this way; the result equals
 * observedBasis(prior, kept)' t to rounding.
 */
void expandInto(linalg::Vector &x, const PriorBasis &prior,
                const KeptBlock &kept, const linalg::Vector &t);

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
     * plus workspace reuse and warm starting across calls. Builds a
     * PriorBasis from `prior` and runs the shared-basis overload
     * below, so both produce the same bits.
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

    /** The warm-refit overload with a trailing CovarianceRep, which
     *  it ignores; kept only because perfbench/ calls it. */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::vector<linalg::Vector> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out, CovarianceRep) const;

    /**
     * Shared-basis variant: the warm-refit overload with the
     * prior-invariant work already done. `prior` is only read, so
     * one basis may serve concurrent fits, and the fit written to
     * `fit_out` shares ownership of it (LeoFit::prior).
     *
     * @throws leo::FatalError when `prior` is null.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        const std::shared_ptr<const PriorBasis> &prior,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out = nullptr) const;

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
     *  fitMetric; bitwise equal to it for the same prior. The fit
     *  shares ownership of `prior` (non-null). */
    LeoFit fitMetric(const std::shared_ptr<const PriorBasis> &prior,
                     const std::vector<std::size_t> &obs_idx,
                     const linalg::Vector &obs_vals,
                     linalg::Workspace *ws, const LeoFit *warm) const;

  private:
    /**
     * The one estimate path behind the public overloads, traced as a
     * whole by the leo.em.fit span: sanitize and order the
     * observations, build a basis from `raw` unless `basis` is
     * given, fit, and degrade along DESIGN.md section 8 on failure.
     */
    MetricEstimate estimateMetric(
        const platform::ConfigSpace &space,
        std::shared_ptr<const PriorBasis> basis,
        const std::vector<linalg::Vector> &raw,
        const std::vector<std::size_t> &obs_idx,
        const linalg::Vector &obs_vals, linalg::Workspace *ws,
        const LeoFit *warm, LeoFit *fit_out) const;

    /** The fit itself (validate, order, normalize, run EM), without
     *  the span. */
    LeoFit fitWith(const std::shared_ptr<const PriorBasis> &prior,
                   const std::vector<std::size_t> &obs_idx,
                   const linalg::Vector &obs_vals,
                   linalg::Workspace *ws, const LeoFit *warm) const;

    LeoOptions options_;
};

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_LEO_HH

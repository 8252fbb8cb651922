/**
 * @file
 * The online energy controller.
 *
 * Ties the pieces into the runtime of Section 6.6: sample a few
 * configurations while the application runs, fit an estimator, pace at the
 * cheapest Pareto-frontier configuration that meets the performance
 * demand (idling the intra-window slack), then watch the heartbeats. A sustained gap between measured
 * and predicted behaviour signals a phase change; the controller
 * re-samples and re-estimates. A gradient-ascent guard nudges the
 * operating point up the hull whenever the measured rate falls short
 * of the demand ("all approaches use gradient ascent to increase
 * performance until the demand is met").
 */

#ifndef LEO_RUNTIME_CONTROLLER_HH
#define LEO_RUNTIME_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "linalg/workspace.hh"
#include "optimizer/pareto.hh"
#include "runtime/changepoint.hh"
#include "stats/rng.hh"
#include "telemetry/measurement.hh"

namespace leo::runtime
{

/** Tunables of the control loop. */
struct ControllerOptions
{
    /** Performance demand in heartbeats/s. */
    double targetRate = 1.0;
    /** Configurations sampled when (re)estimating. */
    std::size_t sampleBudget = 20;
    /** Idle system power (intra-window slack), Watts. */
    double idlePower = 85.0;
    /**
     * Phase-change reaction policy (runtime/changepoint.hh). Off
     * keeps the legacy EWMA-history drift trigger (kDriftThreshold
     * for kDriftWindow windows, controller.cc) and is bitwise
     * identical to pre-detector behavior. ColdRefit replaces that
     * trigger with an online change-point detector scoring
     * standardized residuals against the current fit's predictive
     * distribution: detection discards the fits and re-samples
     * immediately instead of waiting out the fixed window.
     */
    ChangePointPolicy changePointPolicy = ChangePointPolicy::Off;
    /** Detector tunables (used when changePointPolicy != Off). */
    ChangePointOptions changePoint;
    /**
     * When true, a completed probe plan parks the controller in
     * fitPending() instead of fitting inline: an external owner (the
     * multi-tenant service) runs the controller's own estimateFor()
     * for both metrics, alongside other tenants' fits, and hands the
     * results back through applyExternalFit(). False keeps the
     * self-contained inline fit.
     */
    bool deferFits = false;
};

/**
 * State machine: Sampling (collecting observations) -> Controlling
 * (pacing on the frontier) -> back to Sampling on drift.
 */
class EnergyController
{
  public:
    /** Operating mode. */
    enum class State
    {
        Sampling,    //!< Collecting observations of the target.
        Controlling  //!< Pacing the demand from estimates.
    };

    /**
     * @param space     The configuration space.
     * @param estimator The estimation approach (borrowed); pass
     *                  nullptr for an oracle-fed controller whose
     *                  estimates are injected via setEstimates().
     * @param prior     Offline profiles (borrowed).
     * @param options   Control knobs.
     * @param bases     The prior bases of `prior`, shared with every
     *                  controller on the same prior (the service passes
     *                  each session's); null builds them from `prior`
     *                  at the first LEO fit or restored fit.
     */
    EnergyController(
        const platform::ConfigSpace &space,
        const estimators::Estimator *estimator,
        const telemetry::ProfileStore &prior, ControllerOptions options,
        std::shared_ptr<const estimators::PriorBases> bases = nullptr);

    /** @return Current state. */
    State state() const { return state_; }

    /** @return The options in use. */
    const ControllerOptions &options() const { return options_; }

    /**
     * Configuration to run the next window in. In Sampling state this
     * is the next probe configuration; in Controlling state it is the
     * frontier configuration pacing the demand.
     *
     * @param rng Randomness for probe selection.
     */
    std::size_t nextConfig(stats::Rng &rng);

    /**
     * Report the measurement of the window that just ran.
     *
     * In Sampling state the sample is added to the observation set
     * and — once the budget is reached — the estimator is fitted and
     * the controller switches to Controlling. In Controlling state
     * the sample feeds drift detection and the gradient-ascent guard.
     *
     * Robustness: a sample with a non-finite or non-positive rate or
     * power (a faulted reading) is rejected — counted in
     * samplesRejected() — without advancing the probe plan, so the
     * same configuration is re-probed next window. A sample for a
     * configuration other than the pending probe is treated as
     * out-of-band telemetry: it updates the measurement history but
     * never enters the fit's observation set.
     *
     * @param s The measured sample (config should match nextConfig()).
     */
    void recordMeasurement(const telemetry::Sample &s);

    /** Inject estimates directly (oracle / tests). */
    void setEstimates(linalg::Vector performance,
                      linalg::Vector power);

    /**
     * True iff the probe plan completed under options().deferFits and
     * the controller is waiting for applyExternalFit(). While
     * pending, nextConfig() keeps returning the last probe
     * configuration (re-measuring it is harmless out-of-band
     * telemetry).
     */
    bool fitPending() const { return fit_pending_; }

    /** @return The observation set a deferred fit must run on. */
    const telemetry::Observations &observations() const
    {
        return observations_;
    }

    /**
     * @return The LEO performance fit behind the current estimates:
     * null outside Controlling on LEO estimates, so before the first
     * fit and from a re-probe until its refit lands. Valid until the
     * next fit or re-probe. The change-point detector reads its
     * predictive variance. The name is pinned by perfbench/, which
     * calls it, until the next change to perfbench.
     */
    const estimators::LeoFit *warmPerfFit() const
    {
        return have_fits_ ? &perf_fit_ : nullptr;
    }

    /** @return The LEO power fit behind the current estimates, as
     *  the accessor above; its name is pinned the same way. */
    const estimators::LeoFit *warmPowerFit() const
    {
        return have_fits_ ? &power_fit_ : nullptr;
    }

    /**
     * Fit one metric of observations() as this controller's next fit
     * would: a LEO estimator fits through the controller's prior
     * basis for the metric (the raw prior vectors when that basis is
     * null), any other estimator through Estimator::estimateMetric.
     * It only reads the controller, so the performance and the power
     * fit may run at the same time on two threads; the inline fit
     * and the service's deferred fits both run it. Never throws: a
     * throw comes back as an empty, unreliable estimate, as does a
     * fit without an estimator, and applyExternalFit() treats that
     * as a failed fit.
     *
     * @param metric  Which metric to fit.
     * @param ws      Scratch arena of a LEO fit (null = a fit-local
     *                arena; it never changes the bits). Concurrent
     *                calls need distinct arenas.
     * @param fit_out When non-null, receives the full LEO fit; it is
     *                left empty by other estimators and by a fit that
     *                fell back to the prior-mean shape.
     */
    estimators::MetricEstimate estimateFor(
        estimators::Metric metric, linalg::Workspace *ws,
        estimators::LeoFit *fit_out) const;

    /**
     * Install the results of estimateFor() for both metrics, then
     * replan and switch to Controlling. The inline fit ends here
     * too, so a deferred fit yields the inline fit's schedule bit for
     * bit. Estimates that come back unusable (wrong size or
     * non-finite) count in fitsFailed() and engage the degradation
     * policy. Never throws.
     *
     * @param perf      Performance estimate.
     * @param power     Power estimate.
     * @param perf_fit  Full performance fit (its variance feeds the
     *                  change-point detector).
     * @param power_fit Full power fit.
     */
    void applyExternalFit(estimators::MetricEstimate perf,
                          estimators::MetricEstimate power,
                          estimators::LeoFit perf_fit,
                          estimators::LeoFit power_fit);

    /**
     * Serialize the complete control state — observations, probe
     * plan, estimates, whether LEO fits stand behind them, drift/boost
     * bookkeeping and degradation counters — so a controller
     * constructed with the same space, estimator, prior and options
     * can resume the run bit for bit (see restoreState()). The fits
     * themselves are not written: they are a function of the prior
     * and the observations.
     */
    void saveState(linalg::ByteWriter &w) const;

    /**
     * Restore state written by saveState(). The controller must have
     * been constructed with the same configuration space (validated),
     * estimator kind, prior and options as the saved one — the blob
     * carries runtime state, not construction parameters. When the
     * saved controller held fits, restore re-derives both with
     * estimateFor() on the restored observations (two fits, on this
     * controller's prior bases) and installs them as
     * applyExternalFit() would; unless the installed estimates equal
     * the saved ones bit for bit (another prior, an altered
     * observation or estimate) the blob fails closed. Never throws; on
     * a truncated or mismatched blob (an older format version
     * included), or one saveState() would not write (a flag byte other
     * than 0 or 1, history out of order, indices outside the space, a
     * sampling state with no probe left, fits outside Controlling) the
     * controller resets to fresh Sampling state and returns false.
     */
    bool restoreState(linalg::ByteReader &r);

    /** @return Current estimates (empty before the first fit). */
    const linalg::Vector &performanceEstimate() const
    {
        return perf_;
    }
    /** @return Current power estimates. */
    const linalg::Vector &powerEstimate() const { return power_; }

    /** @return Number of re-estimations triggered by drift. */
    std::size_t reestimations() const { return reestimations_; }

    /** @return True once at least one fit has happened. */
    bool hasEstimates() const { return !perf_.empty(); }

    /** @return Fits that failed (threw or went non-finite) and fell
     *  back to the degradation policy. */
    std::size_t fitsFailed() const
    {
        return static_cast<std::size_t>(fits_failed_);
    }

    /** @return Measurements rejected as unusable (non-finite or
     *  non-positive readings), plus observations the estimator's own
     *  sanitization dropped. */
    std::size_t samplesRejected() const
    {
        return static_cast<std::size_t>(samples_rejected_);
    }

    /** @return Windows spent controlling on fallback estimates. */
    std::size_t fallbackWindows() const
    {
        return static_cast<std::size_t>(fallback_windows_);
    }

    /** @return Change-points detected (0 with the policy Off). */
    std::size_t changePointsDetected() const
    {
        return static_cast<std::size_t>(changepoints_detected_);
    }

  private:
    /** Fit both metrics from the current observations and install
     *  them; never throws — a failed fit engages the fallback
     *  policy. */
    void fit();

    /**
     * Install a fit's two estimates as perf_ and power_ and return
     * true, or, when either is unusable (wrong size or non-finite),
     * install the degradation policy's instead and return false:
     * prior-mean estimates when a prior exists, none otherwise
     * (race-to-idle). applyExternalFit() and restoreState() share it.
     */
    bool installEstimates(linalg::Vector perf, linalg::Vector power);

    /** Reset sampling state so fresh probes are drawn, and drop the
     *  fits of the cleared observations. */
    void beginSampling();

    /** The prior bases, built from prior_ on first use when none were
     *  passed at construction. */
    const estimators::PriorBases &priorBases();

    /** Recompute the frontier and locate the demand on it, then
     *  reset the guard (boost, rate EWMA, drift and starvation
     *  counts, detectors) for the new estimates. */
    void replan();

    /**
     * replan() minus the guard resets: recomputes the frontier and
     * segment while preserving the gradient-ascent boost, the
     * measured-rate EWMA and the drift counter, so a restored
     * controller resumes its guard where the saved one left it.
     */
    void replanPreserving();

    /** Select the frontier configuration pacing the demand. */
    std::size_t paceConfig();

    /** Predictive sigma for one configuration's residual, floored at
     *  changePoint.minRelativeSigma of the prediction. */
    double predictiveSigma(const estimators::LeoFit &fit,
                           std::size_t config,
                           double predicted) const;

    /** Feed the change-point detectors with this window's residuals;
     *  true when either alarms (never throws). */
    bool changePointFired(const telemetry::Sample &s,
                          std::size_t *latency);

    const platform::ConfigSpace &space_;
    const estimators::Estimator *estimator_; // leo-lint: allow(snapshot-completeness) borrowed dependency, rebound on construction
    const telemetry::ProfileStore &prior_; // leo-lint: allow(snapshot-completeness) borrowed dependency, rebound on construction
    ControllerOptions options_;

    State state_ = State::Sampling;
    telemetry::Observations observations_;
    std::vector<std::size_t> probe_plan_;
    std::size_t probe_next_ = 0;

    linalg::Vector perf_;
    linalg::Vector power_;
    /** Scratch arena reused across LEO (re)fits. */
    linalg::Workspace fit_ws_; // leo-lint: allow(snapshot-completeness) fit scratch workspace
    /** Prior bases of the LEO fits: passed at construction, or built
     *  at the first fit or restored fit (so construction stays cheap)
     *  and reused by every refit. A metric whose prior cannot be built
     *  has a null basis. */
    std::shared_ptr<const estimators::PriorBases> bases_; // leo-lint: allow(snapshot-completeness) derived from the borrowed prior, passed or rebuilt on construction
    /** The LEO fits behind perf_ and power_ (have_fits_): the
     *  change-point detector's predictive variance. A function of
     *  observations_, which restoreState() refits. */
    estimators::LeoFit perf_fit_;
    estimators::LeoFit power_fit_;
    bool have_fits_ = false;
    /** Per-configuration EWMA of measured rates (drift reference). */
    std::unordered_map<std::size_t, double> history_;
    std::vector<optimizer::TradeoffPoint> frontier_;
    std::size_t segment_ = 0;  //!< Frontier segment at the target.
    std::size_t boost_ = 0;    //!< Gradient-ascent offset upward.
    double avg_rate_ = 0.0;    //!< EWMA of measured rate.
    bool have_avg_ = false;
    std::size_t drift_count_ = 0;
    /** Consecutive starved windows (change-point policies only; see
     *  kStarveWindows in controller.cc). */
    std::size_t starve_count_ = 0;
    std::size_t reestimations_ = 0;
    std::size_t pending_config_ = 0;
    /** Probe plan complete, external fit not yet applied (deferFits). */
    bool fit_pending_ = false;
    /** The degradation counts behind the accessors above. */
    std::uint64_t fits_failed_ = 0;
    std::uint64_t samples_rejected_ = 0;
    std::uint64_t fallback_windows_ = 0;
    std::uint64_t changepoints_detected_ = 0;
    /** Online change-point detectors over heartbeat / power
     *  residuals (idle unless options_.changePointPolicy engages
     *  them). */
    ChangePointDetector cp_perf_;
    ChangePointDetector cp_power_;
    /** Windows left before a fallback triggers fresh probes. */
    std::size_t fallback_remaining_ = 0;
};

} // namespace leo::runtime

#endif // LEO_RUNTIME_CONTROLLER_HH

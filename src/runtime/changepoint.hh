/**
 * @file
 * Online change-point detection for the controller.
 *
 * The legacy phase-change trigger (the controller's kDriftThreshold
 * gap and ControllerOptions::driftWindow) compares each measurement
 * against that configuration's own EWMA history and needs driftWindow
 * consecutive large gaps — robust, but slow on gradual drifts (the
 * EWMA tracks the drift away) and wasteful on clean step changes (it
 * always waits the full window). This header provides the replacement
 * detectors, fed with *standardized residuals* of each window's
 * measurement against the current fit's predictive distribution:
 *
 *     r_t = (measured - predicted) / clamp(sigma_pred, floor, cap)
 *
 * and centered on the mean residual observed during the post-fit
 * warmup windows, so persistent fit bias at the paced configuration
 * is subtracted out before either statistic sees it.
 *
 * Two methods:
 *
 *  - Cusum: a two-sided CUSUM. g+ <- max(0, g+ + r - k),
 *    g- <- max(0, g- - r - k); alarm when either exceeds h. With
 *    k = cusumDrift (in sigmas) the statistic ignores persistent
 *    bias below k and accumulates anything larger, so a drift of
 *    2 sigma fires after about h / (2 - k) windows. The onset
 *    estimate is the window where the firing side last sat at zero,
 *    giving a detection-latency sample for the histogram.
 *
 *  - Bayesian: bounded-run-length Bayesian online change-point
 *    detection (Adams & MacKay) on the same residuals with a
 *    constant hazard, unit observation variance and a N(0, 1) prior
 *    on the post-change mean. An alarm fires when the posterior
 *    probability that the run length is short (a change happened
 *    within the last few windows) exceeds detectProbability. The
 *    latency estimate is that short run length.
 *
 * Detectors are plain deterministic state machines: no clocks, no
 * RNG, no allocation after configure(), and observe() never throws —
 * the controller calls it inside its never-throw window path.
 */

#ifndef LEO_RUNTIME_CHANGEPOINT_HH
#define LEO_RUNTIME_CHANGEPOINT_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/serialize.hh"

namespace leo::runtime
{

/** What the controller does when a change-point fires. */
enum class ChangePointPolicy
{
    /** Detection disabled; the legacy drift trigger runs. The whole
     *  pipeline is bitwise identical to pre-detector behavior. */
    Off,
    /** Discard estimates, warm fits and observation history, then
     *  re-sample and fit cold — the right reaction to a genuine
     *  phase change (the old posterior describes dead behavior). */
    ColdRefit,
    /** Re-sample but keep the previous fits as the EM warm start /
     *  prior anchor — the cheaper reaction when phases revisit
     *  familiar territory. */
    PriorReset
};

/** Detection algorithm. */
enum class ChangePointMethod
{
    Cusum,   //!< Two-sided CUSUM (the default).
    Bayesian //!< Bounded-run-length Bayesian online detection.
};

/** Detector tunables (shared by both methods). */
struct ChangePointOptions
{
    /** Algorithm choice. */
    ChangePointMethod method = ChangePointMethod::Cusum;
    /** CUSUM allowance k, in predictive sigmas: shifts smaller than
     *  this are treated as in-control noise. */
    double cusumDrift = 0.5;
    /** CUSUM alarm threshold h, in accumulated sigmas. */
    double cusumThreshold = 6.0;
    /** Relative floor on the predictive sigma (fraction of the
     *  predicted value): keeps residuals finite and tempers
     *  overconfident fits. */
    double minRelativeSigma = 0.02;
    /** Relative ceiling on the predictive sigma (fraction of the
     *  predicted value): an *under*confident fit — e.g. a cold refit
     *  from a handful of probes, whose predictive variance away from
     *  the probed configurations is huge — would otherwise
     *  standardize every residual to ~0 and blind the detector
     *  exactly when the map is most suspect. 0 disables the cap. */
    double maxRelativeSigma = 0.15;
    /** Windows after a (re)fit before residuals are scored. Warmup
     *  does double duty: the mean residual over these windows is
     *  taken as the fit's persistent bias at the paced
     *  configuration, and later residuals are centered on it — so
     *  static estimation error does not masquerade as drift, while a
     *  genuine phase change still moves the centered residual. */
    std::size_t warmupWindows = 2;
    /** Consecutive windows where the measured rate misses the demand
     *  (average below 98% of target) while the map predicts the
     *  paced configuration meets it, before the controller treats
     *  starvation itself as change-grade evidence and re-samples.
     *  Warmup centering absorbs static fit bias, so a uniformly
     *  optimistic fit can pace a missing configuration with no
     *  residual signal left — this is the escape hatch. Genuinely
     *  infeasible demand never trips it (the map concedes the
     *  shortfall there). 0 disables it. */
    std::size_t starveWindows = 8;
    /** Bayesian: constant per-window change hazard. */
    double hazard = 0.02;
    /** Bayesian: run-length truncation bound. */
    std::size_t maxRunLength = 64;
    /** Bayesian: alarm when P(run length <= shortRunWindows) exceeds
     *  this. */
    double detectProbability = 0.80;
    /** Bayesian: "short" run-length cutoff for the alarm. */
    std::size_t shortRunWindows = 3;
};

/**
 * One online change-point detector over a standardized-residual
 * stream. The controller runs two (heartbeat and power residuals)
 * and reacts when either alarms.
 */
class ChangePointDetector
{
  public:
    ChangePointDetector() = default;

    /** Install options and reset all state. */
    void configure(const ChangePointOptions &options);

    /** Drop accumulated evidence (call after every (re)fit: the
     *  predictive distribution the residuals are scored against has
     *  changed). Keeps the options. */
    void reset();

    /**
     * Score one window's standardized residual.
     *
     * @param residual (measured - predicted) / sigma; the caller
     *                 guarantees finiteness.
     * @return True when a change-point fires this window. The
     *         detector keeps accumulating after an alarm; the caller
     *         is expected to reset() when it reacts.
     */
    bool observe(double residual);

    /** @return Windows scored since the last reset(). */
    std::size_t windowsObserved() const { return windows_; }

    /**
     * Estimated windows between the change and the alarm, valid
     * after observe() returned true: the CUSUM onset distance, or
     * the Bayesian short-run MAP length.
     */
    std::size_t lastDetectionLatency() const { return latency_; }

    /** Serialize detector state (options are construction data and
     *  are not shipped). */
    void save(linalg::ByteWriter &w) const;

    /** Restore state written by save(). Returns false (and resets)
     *  on a malformed blob. */
    bool restore(linalg::ByteReader &r);

  private:
    bool observeCusum(double residual);
    bool observeBayes(double residual);

    ChangePointOptions options_; // leo-lint: allow(snapshot-completeness) configuration, supplied on construction
    std::size_t windows_ = 0;
    std::size_t latency_ = 0;
    // Warmup bias estimate (see ChangePointOptions::warmupWindows).
    double warmupSum_ = 0.0;
    double bias_ = 0.0;
    // CUSUM state.
    double gPos_ = 0.0;
    double gNeg_ = 0.0;
    std::size_t lastZeroPos_ = 0; //!< Window where g+ last sat at 0.
    std::size_t lastZeroNeg_ = 0;
    // Bayesian state: run-length posterior and per-run sufficient
    // statistics (count, residual sum), all length maxRunLength + 1.
    std::vector<double> runProb_;
    std::vector<double> runCount_;
    std::vector<double> runSum_;
    std::vector<double> scratchProb_; // leo-lint: allow(snapshot-completeness) scratch, resized on demand
    std::vector<double> scratchCount_; // leo-lint: allow(snapshot-completeness) scratch, resized on demand
    std::vector<double> scratchSum_; // leo-lint: allow(snapshot-completeness) scratch, resized on demand
};

/** Histogram buckets for detection-latency-in-windows metrics. */
std::vector<double> changePointLatencyBuckets();

} // namespace leo::runtime

#endif // LEO_RUNTIME_CHANGEPOINT_HH

/**
 * @file
 * Online change-point detection for the controller.
 *
 * The legacy phase-change trigger (the controller's kDriftThreshold
 * gap held for kDriftWindow windows, both in controller.cc) compares
 * each measurement against that configuration's own EWMA history —
 * robust, but slow on gradual drifts (the EWMA tracks the drift away)
 * and wasteful on clean step changes (it always waits the full
 * window). This header provides the replacement detector, fed with
 * *standardized residuals* of each window's measurement against the
 * current fit's predictive distribution:
 *
 *     r_t = (measured - predicted) / clamp(sigma_pred, floor, cap)
 *
 * and centered on the mean residual observed during the post-fit
 * warmup windows, so persistent fit bias at the paced configuration
 * is subtracted out before the statistic sees it.
 *
 * The statistic is a two-sided CUSUM: g+ <- max(0, g+ + r - k),
 * g- <- max(0, g- - r - k); alarm when either exceeds h. With
 * k = cusumDrift (in sigmas) it ignores persistent bias below k and
 * accumulates anything larger, so a drift of 2 sigma fires after
 * about h / (2 - k) windows. The onset estimate is the window where
 * the firing side last sat at zero, giving a detection-latency sample
 * for the histogram.
 *
 * Detectors are plain deterministic state machines: no clocks, no
 * RNG, no allocation, and observe() never throws —
 * the controller calls it inside its never-throw window path.
 */

#ifndef LEO_RUNTIME_CHANGEPOINT_HH
#define LEO_RUNTIME_CHANGEPOINT_HH

#include <cstddef>
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
    /** Discard the fits and the observation history, then re-sample
     *  and refit — the right reaction to a genuine
     *  phase change (the old posterior describes dead behavior). */
    ColdRefit
};

/** Detector tunables. */
struct ChangePointOptions
{
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
     * after observe() returned true: the CUSUM onset distance.
     */
    std::size_t lastDetectionLatency() const { return latency_; }

    /** Serialize detector state (options are construction data and
     *  are not shipped). */
    void save(linalg::ByteWriter &w) const;

    /** Restore state written by save(). Returns false (and resets)
     *  on a short blob. */
    bool restore(linalg::ByteReader &r);

  private:
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
};

/** Histogram buckets for detection-latency-in-windows metrics. */
std::vector<double> changePointLatencyBuckets();

} // namespace leo::runtime

#endif // LEO_RUNTIME_CHANGEPOINT_HH

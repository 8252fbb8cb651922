/**
 * @file
 * Implementation of the online energy controller.
 */

#include "runtime/controller.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>

#include "estimators/offline.hh"
#include "linalg/error.hh"
#include "obs/obs.hh"

namespace leo::runtime
{

namespace
{

/** Relative gap between a measurement and the same configuration's
 *  own measurement history that counts as drift. Comparing against
 *  history (not the model) separates phase changes from static
 *  estimation error: a merely-misestimated configuration measures
 *  consistently, while a phase change moves the measurement away
 *  from its own past. */
constexpr double kDriftThreshold = 0.20;

/** Consecutive drifting windows (gap above kDriftThreshold) before
 *  the Off policy re-estimates. */
constexpr std::size_t kDriftWindow = 3;

/** Windows to ride a fallback estimate after a failed fit before
 *  retrying estimation with fresh probes (DESIGN.md "Failure model
 *  and degradation policy"). */
constexpr std::size_t kFallbackBackoffWindows = 8;

/** Consecutive windows where the measured rate misses the demand
 *  (average below 98% of target) while the map predicts the paced
 *  configuration meets it, before a change-point policy treats
 *  starvation itself as change-grade evidence and re-samples. Warmup
 *  centering absorbs static fit bias, so a uniformly optimistic fit
 *  can pace a missing configuration with no residual signal left —
 *  this is the escape hatch. Genuinely infeasible demand never trips
 *  it (the map concedes the shortfall there). */
constexpr std::size_t kStarveWindows = 8;

/** Snapshot format version; bump when the field list changes.
 *  v2 dropped the two per-window refitter states; v3 dropped the
 *  detectors' run-length arrays; v4 carried its fits without mu; v5
 *  carries no fits (restore refits the observations). */
constexpr std::uint32_t kControllerStateVersion = 5;

/** True iff a and b hold the same doubles, bit for bit. */
bool
sameBits(const linalg::Vector &a, const linalg::Vector &b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::bit_cast<std::uint64_t>(x) ==
                                 std::bit_cast<std::uint64_t>(y);
                      });
}

/** The estimator as LEO, or null: LEO fits run through the prior
 *  bases and keep their factors for the change-point detector. */
const estimators::LeoEstimator *
asLeo(const estimators::Estimator *estimator)
{
    return dynamic_cast<const estimators::LeoEstimator *>(estimator);
}

/** Change-point detection latency in windows, one histogram for the
 *  process (registered at first use). */
const obs::Histogram &
changePointLatency()
{
    static const obs::Histogram h = obs::Registry::global().histogram(
        obs::names::kControllerChangepointLatency,
        changePointLatencyBuckets());
    return h;
}

} // namespace

EnergyController::EnergyController(
    const platform::ConfigSpace &space,
    const estimators::Estimator *estimator,
    const telemetry::ProfileStore &prior, ControllerOptions options,
    std::shared_ptr<const estimators::PriorBases> bases)
    : space_(space), estimator_(estimator), prior_(prior),
      options_(options), bases_(std::move(bases))
{
    require(options_.targetRate > 0.0,
            "EnergyController: target rate must be > 0");
    if (estimator_ == nullptr) {
        // Oracle-fed controller: estimates arrive via setEstimates();
        // there is nothing to sample.
        state_ = State::Controlling;
    }
    if (options_.changePointPolicy != ChangePointPolicy::Off) {
        cp_perf_.configure(options_.changePoint);
        cp_power_.configure(options_.changePoint);
    }
}

std::size_t
EnergyController::nextConfig(stats::Rng &rng)
{
    if (state_ == State::Sampling) {
        // Waiting on applyExternalFit(): the plan is exhausted, so
        // keep re-offering the last probe (its measurements are
        // harmless out-of-band telemetry) until the fit lands.
        if (fit_pending_)
            return pending_config_;
        if (probe_plan_.empty()) {
            probe_plan_ = rng.sampleWithoutReplacement(
                space_.size(),
                std::min(options_.sampleBudget, space_.size()));
            probe_next_ = 0;
        }
        pending_config_ = probe_plan_[probe_next_];
        return pending_config_;
    }
    pending_config_ = paceConfig();
    return pending_config_;
}

void
EnergyController::recordMeasurement(const telemetry::Sample &s)
{
    obs::Span span(obs::names::kControllerWindowSpan, "runtime");
    span.arg("config", static_cast<double>(s.configIndex));
    span.arg("state",
             state_ == State::Sampling ? 0.0 : 1.0);

    // Reject unusable telemetry up front: a non-finite or
    // non-positive reading (a faulted sensor poll — see
    // faults/faults.hh) must neither enter the fit nor advance the
    // probe plan, so the pending configuration is simply re-probed.
    if (s.configIndex >= space_.size() ||
        !std::isfinite(s.heartbeatRate) || s.heartbeatRate <= 0.0 ||
        !std::isfinite(s.powerWatts) || s.powerWatts <= 0.0) {
        ++samples_rejected_;
        return;
    }

    // Track each configuration's own measurement history; it is the
    // drift reference in Controlling state.
    auto hist = history_.find(s.configIndex);

    if (state_ == State::Sampling) {
        if (hist == history_.end())
            history_[s.configIndex] = s.heartbeatRate;
        else
            hist->second = 0.5 * (hist->second + s.heartbeatRate);
        // While a deferred fit is pending the plan is already
        // complete; the history update above is all this sample is
        // good for.
        if (fit_pending_)
            return;
        // Only a measurement of the pending probe advances the plan
        // and enters the fit's observation set; anything else is
        // out-of-band telemetry (it fed the history above) — an
        // unsolicited sample must not skip a planned probe or
        // mislabel the fit input.
        if (probe_plan_.empty() ||
            s.configIndex != probe_plan_[probe_next_])
            return;
        observations_.push(s);
        ++probe_next_;
        if (probe_next_ >= probe_plan_.size()) {
            if (options_.deferFits && estimator_ != nullptr) {
                fit_pending_ = true;
                return;
            }
            fit();
        }
        return;
    }

    // Controlling on fallback estimates: count the window and, when
    // the backoff expires, retry estimation with fresh probes.
    if (fallback_remaining_ > 0) {
        ++fallback_windows_;
        if (--fallback_remaining_ == 0 && estimator_ != nullptr) {
            beginSampling();
            return;
        }
    }

    // Controlling: track the measured rate and test for drift
    // against the prediction for the configuration that ran.
    const double alpha = 0.3;
    avg_rate_ = have_avg_
                    ? alpha * s.heartbeatRate + (1.0 - alpha) * avg_rate_
                    : s.heartbeatRate;
    have_avg_ = true;

    if (hist != history_.end() && hist->second > 0.0) {
        const double gap =
            std::abs(s.heartbeatRate - hist->second) / hist->second;
        if (gap > kDriftThreshold)
            ++drift_count_;
        else
            drift_count_ = 0;
        // The EWMA follows slowly so a genuine step change stays
        // detectable across the whole drift window.
        hist->second = 0.9 * hist->second + 0.1 * s.heartbeatRate;
    } else {
        history_[s.configIndex] = s.heartbeatRate;
    }

    if (options_.changePointPolicy == ChangePointPolicy::Off) {
        if (drift_count_ >= kDriftWindow && estimator_ != nullptr) {
            // Phase change: the old observations and the measurement
            // history describe dead behaviour.
            ++reestimations_;
            beginSampling();
            return;
        }
    } else if (estimator_ != nullptr) {
        // Change-point policy: score this window's standardized
        // residuals against the current estimates instead of waiting
        // out the fixed drift window.
        std::size_t latency = 0;
        bool fired = changePointFired(s, &latency);
        if (!fired) {
            // Starvation escape (kStarveWindows): the map says the
            // configuration that just ran meets the demand, the
            // measurement says the demand is missed — the fit is
            // wrong exactly where it is being trusted, even when the
            // centered residual stream has been silenced by a
            // uniformly optimistic fit. Genuinely infeasible demand
            // does not qualify: there the map itself concedes the
            // paced configuration falls short.
            const bool starved =
                have_avg_ &&
                avg_rate_ < options_.targetRate * 0.98 &&
                s.configIndex < perf_.size() &&
                perf_[s.configIndex] >= options_.targetRate;
            if (!starved)
                starve_count_ = 0;
            else if (++starve_count_ >= kStarveWindows) {
                fired = true;
                latency = starve_count_;
            }
        }
        if (fired) {
            ++changepoints_detected_;
            changePointLatency().record(static_cast<double>(latency));
            ++reestimations_;
            beginSampling();
            return;
        }
    }

    // Gradient-ascent performance guard (Section 6.6): climb the
    // frontier while the demand is missed. Ascent only — backing off
    // on a lucky fast window would oscillate between meeting and
    // missing; the boost resets at the next (re-)estimation instead.
    if (have_avg_ && !frontier_.empty() &&
        avg_rate_ < options_.targetRate * 0.98 &&
        segment_ + 1 + boost_ < frontier_.size()) {
        ++boost_;
    }
}

double
EnergyController::predictiveSigma(const estimators::LeoFit &fit,
                                  std::size_t config,
                                  double predicted) const
{
    double variance = 0.0;
    if (have_fits_)
        variance = fit.predictiveVarianceAt(config);
    double sigma = variance > 0.0 ? std::sqrt(variance) : 0.0;
    // An underconfident fit (cold refit from a few probes) must not
    // blind the detector by inflating sigma without bound.
    const double cap = options_.changePoint.maxRelativeSigma;
    if (cap > 0.0)
        sigma = std::min(sigma, cap * std::abs(predicted));
    const double floor = std::max(
        options_.changePoint.minRelativeSigma * std::abs(predicted),
        1e-9);
    return std::max(sigma, floor);
}

bool
EnergyController::changePointFired(const telemetry::Sample &s,
                                   std::size_t *latency)
{
    // Residuals need a prediction to be residuals *of*; on fallback
    // or race-to-idle estimates there is none worth scoring.
    if (perf_.size() != space_.size() ||
        power_.size() != space_.size())
        return false;
    bool fired = false;
    std::size_t lat = 0;
    try {
        const double predicted_rate = perf_[s.configIndex];
        const double predicted_power = power_[s.configIndex];
        const double rate_sigma =
            predictiveSigma(perf_fit_, s.configIndex,
                            predicted_rate);
        const double power_sigma =
            predictiveSigma(power_fit_, s.configIndex,
                            predicted_power);
        if (cp_perf_.observe(
                (s.heartbeatRate - predicted_rate) / rate_sigma)) {
            fired = true;
            lat = cp_perf_.lastDetectionLatency();
        }
        if (cp_power_.observe(
                (s.powerWatts - predicted_power) / power_sigma)) {
            fired = true;
            lat = std::max(lat, cp_power_.lastDetectionLatency());
        }
    } catch (const std::exception &) {
        // A fit without a usable variance is a scoring problem, not
        // a phase change; keep controlling.
        return false;
    }
    if (fired && latency != nullptr)
        *latency = lat;
    return fired;
}

void
EnergyController::setEstimates(linalg::Vector performance,
                               linalg::Vector power)
{
    require(performance.size() == space_.size() &&
                power.size() == space_.size(),
            "EnergyController: estimate size mismatch");
    perf_ = std::move(performance);
    power_ = std::move(power);
    have_fits_ = false;
    fallback_remaining_ = 0;
    fit_pending_ = false;
    replan();
    state_ = State::Controlling;
}

void
EnergyController::beginSampling()
{
    history_.clear();
    observations_ = telemetry::Observations{};
    probe_plan_.clear();
    probe_next_ = 0;
    drift_count_ = 0;
    starve_count_ = 0;
    boost_ = 0;
    have_avg_ = false;
    fallback_remaining_ = 0;
    fit_pending_ = false;
    // A fit belongs to the observations just cleared: drop it, so the
    // fits are always a function of observations().
    have_fits_ = false;
    perf_fit_ = estimators::LeoFit{};
    power_fit_ = estimators::LeoFit{};
    cp_perf_.reset();
    cp_power_.reset();
    state_ = State::Sampling;
}

const estimators::PriorBases &
EnergyController::priorBases()
{
    // The prior never changes under a controller, so its bases are
    // built at most once; a prior they cannot be built from leaves
    // null bases, and those fits keep the raw-vector path.
    if (!bases_)
        bases_ = estimators::PriorBases::build(prior_);
    return *bases_;
}

void
EnergyController::fit()
{
    estimators::MetricEstimate perf;
    estimators::MetricEstimate power;
    estimators::LeoFit perf_fit;
    estimators::LeoFit power_fit;
    {
        obs::Span span(obs::names::kControllerFitSpan, "runtime");
        span.arg("observations",
                 static_cast<double>(observations_.size()));
        // A LEO fit builds the bases here, at the first fit, so that
        // construction stays cheap; estimateFor() only reads them.
        if (asLeo(estimator_) != nullptr)
            priorBases();
        perf = estimateFor(estimators::Metric::Performance, &fit_ws_,
                           &perf_fit);
        power = estimateFor(estimators::Metric::Power, &fit_ws_,
                            &power_fit);
    }
    applyExternalFit(std::move(perf), std::move(power),
                     std::move(perf_fit), std::move(power_fit));
}

estimators::MetricEstimate
EnergyController::estimateFor(estimators::Metric metric,
                              linalg::Workspace *ws,
                              estimators::LeoFit *fit_out) const
{
    const bool is_perf = metric == estimators::Metric::Performance;
    const linalg::Vector &vals =
        is_perf ? observations_.performance : observations_.power;
    // No estimator throw escapes the controller: it reaches the
    // caller as a failed fit, which engages the degradation policy
    // instead of crashing the control loop mid-flight.
    try {
        const estimators::LeoEstimator *leo = asLeo(estimator_);
        if (leo != nullptr) {
            // Every fit runs cold, so it depends on the prior and the
            // observations only. A prior the bases cannot be built
            // from keeps the raw-vector path, which degrades inside
            // the estimator.
            const std::shared_ptr<const estimators::PriorBasis> basis =
                bases_ == nullptr ? nullptr
                : is_perf         ? bases_->perf
                                  : bases_->power;
            return basis ? leo->estimateMetric(space_, basis,
                                               observations_.indices,
                                               vals, ws, fit_out)
                         : leo->estimateMetric(
                               space_, priorVectors(prior_, metric),
                               observations_.indices, vals, ws,
                               fit_out);
        }
        if (estimator_ != nullptr)
            return estimator_->estimateMetric(
                space_, priorVectors(prior_, metric),
                observations_.indices, vals);
    } catch (const std::exception &) {
        // Fall through to the failed estimate.
    }
    if (fit_out != nullptr)
        *fit_out = estimators::LeoFit{};
    estimators::MetricEstimate failed;
    failed.reliable = false;
    return failed;
}

void
EnergyController::replanPreserving()
{
    if (!hasEstimates()) {
        // Race-to-idle degradation: with no estimates at all the
        // frontier is unknown; paceConfig() then runs the final
        // (all-resources) configuration.
        frontier_.clear();
        return;
    }
    // Pacing selects a single configuration per window (the slack is
    // idled out inside the window), so the candidate set is the full
    // Pareto frontier: unlike batch scheduling, pure selection can
    // exploit frontier points that sit above the convex hull.
    frontier_ = optimizer::paretoFrontier(perf_, power_);

    // Locate the segment bracketing the demand.
    segment_ = 0;
    while (segment_ + 1 < frontier_.size() &&
           frontier_[segment_ + 1].performance < options_.targetRate) {
        ++segment_;
    }
    // boost_, have_avg_ and drift_count_ deliberately survive:
    // paceConfig() clamps the boost against the new frontier size.
}

bool
EnergyController::installEstimates(linalg::Vector perf,
                                   linalg::Vector power)
{
    if (perf.size() == space_.size() && power.size() == space_.size() &&
        perf.allFinite() && power.allFinite()) {
        perf_ = std::move(perf);
        power_ = std::move(power);
        return true;
    }
    // Fallback order (DESIGN.md "Failure model and degradation
    // policy"): prior-mean estimates when an offline prior exists;
    // otherwise clear the estimates so paceConfig() races the
    // all-resources configuration (race-to-idle).
    perf_ = linalg::Vector{};
    power_ = linalg::Vector{};
    if (prior_.numApplications() > 0) {
        try {
            const estimators::OfflineEstimator offline;
            estimators::MetricEstimate mean_perf = offline.estimateMetric(
                space_,
                priorVectors(prior_, estimators::Metric::Performance),
                observations_.indices, observations_.performance);
            estimators::MetricEstimate mean_power = offline.estimateMetric(
                space_, priorVectors(prior_, estimators::Metric::Power),
                observations_.indices, observations_.power);
            if (mean_perf.values.allFinite() &&
                mean_power.values.allFinite()) {
                perf_ = std::move(mean_perf.values);
                power_ = std::move(mean_power.values);
            }
        } catch (const std::exception &) {
            // Prior itself unusable; race to idle.
        }
    }
    return false;
}

void
EnergyController::replan()
{
    replanPreserving();
    if (!hasEstimates())
        return;
    boost_ = 0;
    have_avg_ = false;
    drift_count_ = 0;
    starve_count_ = 0;
    // New estimates mean a new predictive distribution: residual
    // evidence accumulated against the old one is void.
    cp_perf_.reset();
    cp_power_.reset();
}

void
EnergyController::applyExternalFit(estimators::MetricEstimate perf,
                                   estimators::MetricEstimate power,
                                   estimators::LeoFit perf_fit,
                                   estimators::LeoFit power_fit)
{
    fit_pending_ = false;
    samples_rejected_ += perf.samplesRejected + power.samplesRejected;
    perf_fit_ = std::move(perf_fit);
    power_fit_ = std::move(power_fit);
    // Other estimators leave the fits empty: no predictive variance
    // for the change-point detector to read.
    have_fits_ = asLeo(estimator_) != nullptr;
    if (installEstimates(std::move(perf.values), std::move(power.values))) {
        fallback_remaining_ = 0;
    } else {
        // The backoff timer re-enters Sampling with fresh probes.
        ++fits_failed_;
        fallback_remaining_ = kFallbackBackoffWindows;
    }
    replan();
    state_ = State::Controlling;
}

void
EnergyController::saveState(linalg::ByteWriter &w) const
{
    w.u32(kControllerStateVersion);
    w.u64(space_.size());
    w.u8(state_ == State::Sampling ? 0 : 1);
    w.indexVec(observations_.indices);
    w.vec(observations_.performance);
    w.vec(observations_.power);
    w.indexVec(probe_plan_);
    w.u64(probe_next_);
    w.vec(perf_);
    w.vec(power_);
    // The fits are a function of the observations: restore re-derives
    // them, so only whether they exist travels.
    w.u8(have_fits_ ? 1 : 0);
    // The history map is unordered in memory; the blob orders it by
    // configuration index so identical states serialize identically.
    std::vector<std::pair<std::size_t, double>> hist(history_.begin(),
                                                     history_.end());
    std::sort(hist.begin(), hist.end());
    w.u64(hist.size());
    for (const auto &[idx, rate] : hist) {
        w.u64(idx);
        w.f64(rate);
    }
    w.u64(segment_);
    w.u64(boost_);
    w.f64(avg_rate_);
    w.u8(have_avg_ ? 1 : 0);
    w.u64(drift_count_);
    w.u64(reestimations_);
    w.u64(pending_config_);
    w.u8(fit_pending_ ? 1 : 0);
    w.u64(fallback_remaining_);
    w.u64(fits_failed_);
    w.u64(samples_rejected_);
    w.u64(fallback_windows_);
    // Appended only when the policy is on, so Off-policy blobs carry
    // no detector bytes. A controller restores with the same options
    // it saved with — the service already guarantees that.
    if (options_.changePointPolicy != ChangePointPolicy::Off) {
        cp_perf_.save(w);
        cp_power_.save(w);
        w.u64(changepoints_detected_);
        w.u64(starve_count_);
    }
}

bool
EnergyController::restoreState(linalg::ByteReader &r)
{
    // Every rejection, an older format version included, leaves no
    // estimates, fits or frontier behind: neither the ones held before
    // the call nor any the rejected blob carried.
    const auto failClosed = [this] {
        beginSampling();
        perf_ = linalg::Vector{};
        power_ = linalg::Vector{};
        frontier_.clear();
        return false;
    };
    if (r.u32() != kControllerStateVersion ||
        r.u64() != space_.size()) {
        r.fail();
        return failClosed();
    }
    const std::uint8_t state = r.u8();
    observations_ = telemetry::Observations{};
    observations_.indices = r.indexVec();
    observations_.performance = r.vec();
    observations_.power = r.vec();
    probe_plan_ = r.indexVec();
    probe_next_ = static_cast<std::size_t>(r.u64());
    perf_ = r.vec();
    power_ = r.vec();
    const std::uint8_t have_fits = r.u8();
    history_.clear();
    // Saved in increasing index order; anything else would re-save
    // differently.
    bool hist_ok = true;
    std::size_t last_hist = 0;
    const std::size_t hist_count = static_cast<std::size_t>(r.u64());
    for (std::size_t i = 0; i < hist_count && r.ok(); ++i) {
        const std::size_t idx = static_cast<std::size_t>(r.u64());
        hist_ok = hist_ok && (i == 0 || idx > last_hist);
        last_hist = idx;
        history_[idx] = r.f64();
    }
    const std::size_t segment = static_cast<std::size_t>(r.u64());
    boost_ = static_cast<std::size_t>(r.u64());
    avg_rate_ = r.f64();
    const std::uint8_t have_avg = r.u8();
    have_avg_ = have_avg != 0;
    drift_count_ = static_cast<std::size_t>(r.u64());
    reestimations_ = static_cast<std::size_t>(r.u64());
    pending_config_ = static_cast<std::size_t>(r.u64());
    const std::uint8_t fit_pending = r.u8();
    fit_pending_ = fit_pending != 0;
    fallback_remaining_ = static_cast<std::size_t>(r.u64());
    const std::uint64_t fits_failed = r.u64();
    const std::uint64_t samples_rejected = r.u64();
    const std::uint64_t fallback_windows = r.u64();
    std::uint64_t changepoints = 0;
    if (options_.changePointPolicy != ChangePointPolicy::Off) {
        cp_perf_.restore(r);
        cp_power_.restore(r);
        changepoints = r.u64();
        starve_count_ = static_cast<std::size_t>(r.u64());
    } else {
        starve_count_ = 0;
    }

    const std::size_t n = space_.size();
    const auto inSpace = [n](const std::vector<std::size_t> &idx) {
        return std::all_of(idx.begin(), idx.end(),
                           [n](std::size_t c) { return c < n; });
    };
    const bool sizes_ok =
        (perf_.empty() || perf_.size() == n) &&
        (power_.empty() || power_.size() == n) &&
        observations_.performance.size() ==
            observations_.indices.size() &&
        observations_.power.size() == observations_.indices.size() &&
        inSpace(observations_.indices) && inSpace(probe_plan_) &&
        probe_next_ <= probe_plan_.size() &&
        (!fit_pending_ || pending_config_ < n);
    // Flags are 0 or 1, a sampling controller that is not waiting on
    // a fit has a probe left to offer (or no plan yet), and only a
    // controlling LEO controller holds fits.
    const bool canonical =
        state <= 1 && have_fits <= 1 && have_avg <= 1 &&
        fit_pending <= 1 && hist_ok &&
        (state != 0 || fit_pending_ || probe_plan_.empty() ||
         probe_next_ < probe_plan_.size()) &&
        (have_fits == 0 || (state == 1 && asLeo(estimator_) != nullptr));
    if (!r.ok() || !sizes_ok || !canonical)
        return failClosed();
    state_ = state == 0 ? State::Sampling : State::Controlling;
    // The frontier is a pure function of the estimates; recompute it
    // rather than shipping it. The same scan reproduces the saved
    // segment deterministically, so the serialized value is only a
    // cross-check.
    replanPreserving();
    if (segment_ != segment)
        return failClosed();
    // The blob carries no fits: re-derive them from the restored
    // observations and install them as applyExternalFit() does. A
    // fit is a pure function of the prior and the observations, so
    // estimates other than the saved ones, bit for bit, mean another
    // prior or an altered observation or estimate.
    have_fits_ = have_fits != 0;
    perf_fit_ = estimators::LeoFit{};
    power_fit_ = estimators::LeoFit{};
    if (have_fits_) {
        const linalg::Vector saved_perf = std::move(perf_);
        const linalg::Vector saved_power = std::move(power_);
        priorBases();
        estimators::MetricEstimate perf = estimateFor(
            estimators::Metric::Performance, nullptr, &perf_fit_);
        estimators::MetricEstimate power =
            estimateFor(estimators::Metric::Power, nullptr, &power_fit_);
        installEstimates(std::move(perf.values), std::move(power.values));
        if (!sameBits(perf_, saved_perf) || !sameBits(power_, saved_power))
            return failClosed();
    }
    fits_failed_ = fits_failed;
    samples_rejected_ = samples_rejected;
    fallback_windows_ = fallback_windows;
    changepoints_detected_ = changepoints;
    return true;
}

std::size_t
EnergyController::paceConfig()
{
    if (frontier_.empty()) {
        // No estimates at all: run the final configuration (all
        // resources) as a safe default.
        return space_.size() - 1;
    }
    // Pace-to-idle: run the cheapest hull vertex whose estimated
    // rate covers the per-window demand and let the caller idle out
    // the slack inside the window. (Duty-cycling between the two
    // bracketing vertices would save a little more energy but makes
    // every other frame miss its individual deadline; Section 6.6
    // requires the demand to be met continuously.) The gradient-
    // ascent boost climbs further up the hull when measurements say
    // the chosen vertex under-delivers.
    std::size_t pace = segment_;
    if (pace + 1 < frontier_.size() &&
        frontier_[pace].performance < options_.targetRate) {
        ++pace;
    }
    pace = std::min(pace + boost_, frontier_.size() - 1);
    const optimizer::TradeoffPoint &v = frontier_[pace];
    if (v.configIndex == optimizer::kIdleConfig) {
        // Demand below the slowest vertex and no boost: still need a
        // real configuration to make progress; use the next one.
        const std::size_t next = std::min(pace + 1, frontier_.size() - 1);
        return frontier_[next].configIndex;
    }
    return v.configIndex;
}

} // namespace leo::runtime

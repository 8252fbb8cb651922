/**
 * @file
 * Implementation of the online energy controller.
 */

#include "runtime/controller.hh"

#include <algorithm>
#include <cmath>
#include <exception>

#include "estimators/fit_io.hh"
#include "estimators/offline.hh"
#include "linalg/error.hh"

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

/** Snapshot format version; bump when the field list changes.
 *  v2 dropped the two per-window refitter states. */
constexpr std::uint32_t kControllerStateVersion = 2;

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
    require(options_.driftWindow >= 1,
            "EnergyController: drift window must be >= 1");
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
        samples_rejected_.add(1);
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
            replan();
            state_ = State::Controlling;
        }
        return;
    }

    // Controlling on fallback estimates: count the window and, when
    // the backoff expires, retry estimation with fresh probes.
    if (fallback_remaining_ > 0) {
        fallback_windows_.add(1);
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
        if (drift_count_ >= options_.driftWindow &&
            estimator_ != nullptr) {
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
        if (!fired && options_.changePoint.starveWindows > 0) {
            // Starvation escape (see ChangePointOptions): the map
            // says the configuration that just ran meets the demand,
            // the measurement says the demand is missed — the fit is
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
            else if (++starve_count_ >=
                     options_.changePoint.starveWindows) {
                fired = true;
                latency = starve_count_;
            }
        }
        if (fired) {
            changepoints_detected_.add(1);
            changepoint_latency_.record(
                static_cast<double>(latency));
            ++reestimations_;
            if (options_.changePointPolicy ==
                ChangePointPolicy::ColdRefit) {
                // The old posterior describes dead behavior: drop
                // the warm fits so the next EM runs from the cold
                // init (PriorReset keeps them as the anchor).
                have_fits_ = false;
                perf_fit_ = estimators::LeoFit{};
                power_fit_ = estimators::LeoFit{};
            }
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
    obs::Span span(obs::names::kControllerFitSpan, "runtime");
    span.arg("observations",
             static_cast<double>(observations_.size()));

    // No estimator throw escapes the controller: a failed or
    // non-finite fit engages the degradation policy instead of
    // crashing the control loop mid-flight.
    try {
        fitUnguarded();
        if (perf_.size() == space_.size() &&
            power_.size() == space_.size() && perf_.allFinite() &&
            power_.allFinite()) {
            fallback_remaining_ = 0;
            return;
        }
    } catch (const std::exception &) {
        // Fall through to the fallback policy.
    }
    fits_failed_.add(1);
    fallbackEstimates();
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

void
EnergyController::fallbackEstimates()
{
    // Fallback order (DESIGN.md "Failure model and degradation
    // policy"): prior-mean estimates when an offline prior exists;
    // otherwise clear the estimates so paceConfig() races the
    // all-resources configuration (race-to-idle). Either way the
    // backoff timer re-enters Sampling with fresh probes later.
    bool have_fallback = false;
    if (prior_.numApplications() > 0) {
        try {
            const estimators::OfflineEstimator offline;
            estimators::MetricEstimate perf = offline.estimateMetric(
                space_,
                priorVectors(prior_, estimators::Metric::Performance),
                observations_.indices, observations_.performance);
            estimators::MetricEstimate power = offline.estimateMetric(
                space_, priorVectors(prior_, estimators::Metric::Power),
                observations_.indices, observations_.power);
            if (perf.values.allFinite() && power.values.allFinite()) {
                perf_ = std::move(perf.values);
                power_ = std::move(power.values);
                have_fallback = true;
            }
        } catch (const std::exception &) {
            // Prior itself unusable; race to idle below.
        }
    }
    if (!have_fallback) {
        perf_ = linalg::Vector{};
        power_ = linalg::Vector{};
    }
    fallback_remaining_ = options_.fallbackBackoffWindows;
}

void
EnergyController::fitUnguarded()
{
    if (estimator_ == nullptr)
        return;
    // LEO fits reuse one workspace across re-estimations and, after
    // the first fit, warm-start EM from the previous parameters — a
    // phase change shifts the observations, not the problem shape,
    // so the previous theta is a strong init (typically 1-2 EM
    // iterations instead of 3-4). Other estimators take the generic
    // interface.
    const auto *as_leo =
        dynamic_cast<const estimators::LeoEstimator *>(estimator_);
    if (as_leo) {
        // A prior the bases cannot be built from keeps the raw-vector
        // path, which degrades inside the estimator.
        const estimators::PriorBases &bases = priorBases();
        const auto fitOne = [&](const std::shared_ptr<
                                    const estimators::PriorBasis> &basis,
                                estimators::Metric metric,
                                const linalg::Vector &vals,
                                estimators::LeoFit &fit) {
            const estimators::LeoFit *warm = have_fits_ ? &fit : nullptr;
            return basis ? as_leo->estimateMetric(
                               space_, basis, observations_.indices,
                               vals, &fit_ws_, warm, &fit)
                         : as_leo->estimateMetric(
                               space_, priorVectors(prior_, metric),
                               observations_.indices, vals, &fit_ws_,
                               warm, &fit);
        };
        estimators::MetricEstimate perf =
            fitOne(bases.perf, estimators::Metric::Performance,
                   observations_.performance, perf_fit_);
        estimators::MetricEstimate power =
            fitOne(bases.power, estimators::Metric::Power,
                   observations_.power, power_fit_);
        have_fits_ = true;
        samples_rejected_.add(perf.samplesRejected +
                              power.samplesRejected);
        perf_ = std::move(perf.values);
        power_ = std::move(power.values);
        return;
    }
    const estimators::EstimationInputs inputs{space_, prior_,
                                              observations_};
    estimators::Estimate est = estimator_->estimate(inputs);
    samples_rejected_.add(est.performance.samplesRejected +
                          est.power.samplesRejected);
    perf_ = std::move(est.performance.values);
    power_ = std::move(est.power.values);
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
    // Mirror of fit() + the post-plan transition in
    // recordMeasurement(), with the estimator call replaced by the
    // caller's results. estimateMetric() never lets an estimator
    // throw escape (it degrades internally), so the inline path's
    // try/catch has no analogue here.
    fit_pending_ = false;
    samples_rejected_.add(perf.samplesRejected +
                          power.samplesRejected);
    perf_fit_ = std::move(perf_fit);
    power_fit_ = std::move(power_fit);
    have_fits_ = true;
    perf_ = std::move(perf.values);
    power_ = std::move(power.values);
    if (perf_.size() == space_.size() &&
        power_.size() == space_.size() && perf_.allFinite() &&
        power_.allFinite()) {
        fallback_remaining_ = 0;
    } else {
        fits_failed_.add(1);
        fallbackEstimates();
    }
    replan();
    state_ = State::Controlling;
}

void
EnergyController::saveState(linalg::ByteWriter &w) const
{
    // A standalone save (into an empty writer) is sized by a counting
    // pass through the same calls, so the blob lands in one
    // allocation instead of a chain of doublings. A writer that
    // already holds bytes, such as a service snapshot, grows as it
    // would anyway.
    if (w.size() == 0) {
        linalg::ByteWriter count = linalg::ByteWriter::counter();
        writeState(count);
        w.reserve(count.size());
    }
    writeState(w);
}

void
EnergyController::writeState(linalg::ByteWriter &w) const
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
    w.u8(have_fits_ ? 1 : 0);
    if (have_fits_) {
        estimators::saveFit(w, perf_fit_);
        estimators::saveFit(w, power_fit_);
    }
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
    w.u64(fits_failed_.value());
    w.u64(samples_rejected_.value());
    w.u64(fallback_windows_.value());
    // Appended only when the policy is on, so Off-policy blobs stay
    // byte-identical to the historical format (and to pre-detector
    // builds). A controller restores with the same options it saved
    // with — the service already guarantees that.
    if (options_.changePointPolicy != ChangePointPolicy::Off) {
        cp_perf_.save(w);
        cp_power_.save(w);
        w.u64(changepoints_detected_.value());
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
        perf_fit_ = estimators::LeoFit{};
        power_fit_ = estimators::LeoFit{};
        have_fits_ = false;
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
    have_fits_ = have_fits != 0;
    if (have_fits_ && r.ok()) {
        // The fits share this controller's prior bases, refactor
        // their kept blocks from them and fail closed on any other
        // prior.
        const estimators::PriorBases &bases = priorBases();
        perf_fit_ = estimators::loadFit(r, bases.perf);
        power_fit_ = estimators::loadFit(r, bases.power);
    } else {
        perf_fit_ = estimators::LeoFit{};
        power_fit_ = estimators::LeoFit{};
    }
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
    bool cp_ok = true;
    std::uint64_t changepoints = 0;
    if (options_.changePointPolicy != ChangePointPolicy::Off) {
        const bool cp_perf_ok = cp_perf_.restore(r);
        const bool cp_power_ok = cp_power_.restore(r);
        cp_ok = cp_perf_ok && cp_power_ok;
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
    // Flags are 0 or 1, and a sampling controller that is not waiting
    // on a fit has a probe left to offer (or no plan yet).
    const bool canonical =
        state <= 1 && have_fits <= 1 && have_avg <= 1 &&
        fit_pending <= 1 && hist_ok &&
        (state != 0 || fit_pending_ || probe_plan_.empty() ||
         probe_next_ < probe_plan_.size());
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
    // A detector that failed to restore is degradation, not blob
    // corruption: it restarts empty and re-accumulates evidence.
    if (!cp_ok) {
        cp_perf_.reset();
        cp_power_.reset();
    }
    // Counters restore additively; a freshly constructed controller
    // has them at zero, so the resumed totals match the saved run.
    fits_failed_.add(fits_failed);
    samples_rejected_.add(samples_rejected);
    fallback_windows_.add(fallback_windows);
    changepoints_detected_.add(changepoints);
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

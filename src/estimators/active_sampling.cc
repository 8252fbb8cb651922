/**
 * @file
 * Implementation of variance-guided active sampling.
 */

#include "estimators/active_sampling.hh"

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "linalg/error.hh"
#include "obs/obs.hh"
#include "workloads/fields.hh"

namespace leo::estimators
{

namespace
{

/** Registry instruments of the active sampler. */
struct SamplingObs
{
    obs::Counter probes =
        obs::Registry::global().counter(obs::names::kSamplingProbesMeasured);
    obs::Counter rounds =
        obs::Registry::global().counter(obs::names::kSamplingRoundsGuided);
};

SamplingObs &
samplingObs()
{
    static SamplingObs o;
    return o;
}

/** Random probes before the first fit. */
constexpr std::size_t kSeedProbes = 4;

/** Probes added per fit-and-select round. */
constexpr std::size_t kBatchSize = 4;

/** @return Whether a reading is usable: finite and positive, the
 *  controller's front-gate rule. */
bool
usable(double reading)
{
    return std::isfinite(reading) && reading > 0.0;
}

} // namespace

telemetry::Observations
VarianceGuidedSampler::collect(const MeasureFn &measure,
                               const std::vector<linalg::Vector> &prior,
                               std::size_t budget,
                               stats::Rng &rng) const
{
    require(!prior.empty(),
            "VarianceGuidedSampler: needs prior applications");
    const std::size_t n = prior.front().size();
    budget = std::min(budget, n);

    telemetry::Observations obs;
    std::vector<bool> seen(n, false);

    auto probe = [&](std::size_t idx) {
        obs::Span span(obs::names::kSamplingProbeSpan, "sampling");
        span.arg("config", static_cast<double>(idx));
        telemetry::Sample s = measure(idx);
        require(s.configIndex == idx,
                "VarianceGuidedSampler: callback measured the wrong "
                "configuration");
        if (!usable(s.heartbeatRate) || !usable(s.powerWatts))
            fatal("VarianceGuidedSampler: configuration " +
                  std::to_string(idx) + " measured rate " +
                  workloads::fields::formatNumber(s.heartbeatRate) +
                  " and power " +
                  workloads::fields::formatNumber(s.powerWatts) +
                  "; both must be finite and > 0");
        obs.push(s);
        seen[idx] = true;
        samplingObs().probes.add(1);
    };

    // Seed with random probes so the first fit has an anchor.
    const std::size_t n_seed = std::min(kSeedProbes, budget);
    for (std::size_t idx :
         rng.sampleWithoutReplacement(n, n_seed)) {
        probe(idx);
    }

    const LeoEstimator estimator;
    // One prior basis and one workspace serve every guidance round:
    // refits skip the prior-invariant work and reuse the arena's
    // buffers.
    std::shared_ptr<const PriorBasis> basis;
    linalg::Workspace ws;
    while (obs.size() < budget) {
        samplingObs().rounds.add(1);
        if (!basis)
            basis = std::make_shared<const PriorBasis>(prior);
        const LeoFit fit = estimator.fitMetric(basis, obs.indices,
                                               obs.performance, &ws);

        // Rank unobserved configurations by predictive variance,
        // read one candidate at a time from the fit's factors
        // (O(q^2 + kept r + kept^2) each; no fit expands the
        // n-vector or forms its basis).
        std::vector<std::size_t> order;
        order.reserve(n);
        std::vector<double> variance(n, 0.0);
        for (std::size_t c = 0; c < n; ++c) {
            if (seen[c])
                continue;
            order.push_back(c);
            variance[c] = fit.predictiveVarianceAt(c);
        }
        invariant(!order.empty(),
                  "active sampling exhausted the space early");
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return variance[a] > variance[b];
                  });

        const std::size_t take = std::min(
            {kBatchSize, budget - obs.size(), order.size()});
        for (std::size_t k = 0; k < take; ++k)
            probe(order[k]);
    }
    return obs;
}

} // namespace leo::estimators

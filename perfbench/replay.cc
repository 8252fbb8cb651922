/**
 * @file
 * Stage-by-stage decision replay (see replay.hh).
 */

#include "replay.hh"

#include <cstring>

#include "estimators/normalization.hh"
#include "estimators/sanitize.hh"
#include "linalg/lowrank.hh"
#include "optimizer/pareto.hh"
#include "optimizer/schedule.hh"

namespace perfbench
{

using namespace leo;

namespace
{

/** Repetitions of stages that take a few microseconds per call, so
 *  they are timed as one total over many calls. */
constexpr int kBatch = 32;

std::uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

} // namespace

Counters
Counters::read()
{
    Counters c;
    c.fits = counterValue(obs::names::kEmFitsCompleted);
    c.ridge = counterValue(obs::names::kEmRidgeRetried);
    c.lpSolves = counterValue(obs::names::kLpSolvesRun);
    c.lpPivots = counterValue(obs::names::kLpPivotsStepped);
    c.globalInfeasible =
        counterValue(obs::names::kOptimizerGlobalPlansInfeasible);
    return c;
}

Counters
Counters::operator-(const Counters &o) const
{
    Counters c = *this;
    c.fits -= o.fits;
    c.ridge -= o.ridge;
    c.lpSolves -= o.lpSolves;
    c.lpPivots -= o.lpPivots;
    c.globalInfeasible -= o.globalInfeasible;
    return c;
}

Counters &
Counters::operator+=(const Counters &o)
{
    fits += o.fits;
    ridge += o.ridge;
    lpSolves += o.lpSolves;
    lpPivots += o.lpPivots;
    globalInfeasible += o.globalInfeasible;
    return *this;
}

bool
sameBits(const linalg::Vector &a, const linalg::Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) ==
               0;
}

Replay
replayDecision(const estimators::LeoEstimator &estimator,
               const platform::ConfigSpace &space,
               const telemetry::ProfileStore &prior,
               const telemetry::Observations &obs,
               const estimators::LeoFit *warm_perf,
               const estimators::LeoFit *warm_power, double idle_power,
               bool in_prefix, ReplayStats &stats)
{
    using estimators::Metric;
    const Counters before = Counters::read();
    const std::size_t n = space.size();

    double t0 = nowUs();
    const std::vector<linalg::Vector> prior_perf =
        estimators::priorVectors(prior, Metric::Performance);
    const std::vector<linalg::Vector> prior_power =
        estimators::priorVectors(prior, Metric::Power);
    const std::vector<linalg::Vector> shapes =
        estimators::normalizeShapes(prior_perf);
    const std::vector<linalg::Vector> shapes_power =
        estimators::normalizeShapes(prior_power);
    stats.priorPrepMs.add((nowUs() - t0) / 2e3);

    t0 = nowUs();
    // The calls live in another translation unit, so the compiler
    // cannot drop the repetitions whose results go unused.
    for (int k = 0; k < kBatch; ++k) {
        estimators::sanitizeObservations(obs.indices, obs.performance, n);
        estimators::sanitizeObservations(obs.indices, obs.power, n);
    }
    stats.sanitizeUs.add((nowUs() - t0) / (2.0 * kBatch));

    // The fit's own basis: prior shapes first, then one coordinate
    // direction per observed configuration.
    for (const auto *set : {&shapes, &shapes_power}) {
        linalg::LowRankBasis basis;
        t0 = nowUs();
        basis.reset(n, set->size() + obs.indices.size());
        for (const linalg::Vector &x : *set)
            basis.appendVector(x);
        const double t1 = nowUs();
        for (const std::size_t j : obs.indices)
            basis.appendUnit(j);
        stats.priorBasisMs.add((t1 - t0) / 1e3);
        stats.obsBasisMs.add((nowUs() - t1) / 1e3);
    }

    Replay r;
    const bool warm = warm_perf != nullptr && warm_power != nullptr;
    Samples &fit_ms = warm ? stats.fitWarmMs : stats.fitColdMs;
    linalg::Workspace ws;
    t0 = nowUs();
    r.perf = estimator.estimateMetric(space, prior_perf, obs.indices,
                                      obs.performance, &ws, warm_perf,
                                      &r.perfFit,
                                      estimators::CovarianceRep::Auto);
    double t1 = nowUs();
    fit_ms.add((t1 - t0) / 1e3);
    r.power = estimator.estimateMetric(space, prior_power, obs.indices,
                                       obs.power, &ws, warm_power,
                                       &r.powerFit,
                                       estimators::CovarianceRep::Auto);
    fit_ms.add((nowUs() - t1) / 1e3);
    if (in_prefix) {
        if (!r.perf.reliable || !r.power.reliable)
            ++stats.unreliable;
        (warm ? stats.itersWarm : stats.itersCold) +=
            r.perfFit.iterations + r.powerFit.iterations;
        (warm ? stats.fitsWarm : stats.fitsCold) += 2;
    }

    if (r.perf.values.allFinite() && r.power.values.allFinite()) {
        t0 = nowUs();
        for (int k = 0; k < kBatch; ++k)
            optimizer::paretoFrontier(r.perf.values, r.power.values);
        stats.frontierUs.add((nowUs() - t0) / kBatch);

        // Half the fastest estimated rate over a 10 s window: a
        // feasible demand in the middle of the frontier.
        double peak = 0.0;
        for (std::size_t c = 0; c < n; ++c)
            peak = std::max(peak, r.perf.values[c]);
        const optimizer::PerformanceConstraint c{5.0 * peak, 10.0};
        t0 = nowUs();
        for (int k = 0; k < kBatch; ++k)
            optimizer::planMinimalEnergy(r.perf.values, r.power.values,
                                         idle_power, c);
        stats.hullPlanUs.add((nowUs() - t0) / kBatch);
    }
    stats.replayed += Counters::read() - before;
    return r;
}

void
setReplayLayers(const ReplayStats &s, Layers &layers)
{
    const auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    layers.set("estimators.prior_prep_ms", s.priorPrepMs.quantile(0.5),
               s.priorPrepMs.size());
    layers.set("estimators.sanitize_us", s.sanitizeUs.quantile(0.5),
               s.sanitizeUs.size() * 2 * kBatch);
    layers.set("estimators.fit_cold_ms", s.fitColdMs.quantile(0.5),
               s.fitColdMs.size());
    layers.set("estimators.fit_warm_ms", s.fitWarmMs.quantile(0.5),
               s.fitWarmMs.size());
    layers.set("estimators.em_iters_cold", ratio(s.itersCold, s.fitsCold),
               s.fitsCold);
    layers.set("estimators.em_iters_warm", ratio(s.itersWarm, s.fitsWarm),
               s.fitsWarm);
    layers.set("linalg.prior_basis_ms", s.priorBasisMs.quantile(0.5),
               s.priorBasisMs.size());
    layers.set("linalg.obs_basis_ms", s.obsBasisMs.quantile(0.5),
               s.obsBasisMs.size());
    layers.set("optimizer.frontier_us", s.frontierUs.quantile(0.5),
               s.frontierUs.size() * kBatch);
    layers.set("optimizer.hull_plan_us", s.hullPlanUs.quantile(0.5),
               s.hullPlanUs.size() * kBatch);
}

} // namespace perfbench

/**
 * @file
 * Tests for the variance-guided active sampler (extension).
 */

#include <gtest/gtest.h>

#include "estimators/active_sampling.hh"
#include "linalg/error.hh"
#include "platform/config_space.hh"
#include "stats/metrics.hh"
#include "telemetry/meters.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;

namespace
{

struct World
{
    platform::Machine machine;
    platform::ConfigSpace space =
        platform::ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    stats::Rng rng{3};
    telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);

    estimators::VarianceGuidedSampler::MeasureFn
    measureFn(const workloads::ApplicationModel &app)
    {
        return [this, &app](std::size_t idx) {
            telemetry::Sample s;
            s.configIndex = idx;
            const auto &ra = space.assignment(idx);
            s.heartbeatRate = monitor.measureRate(app, ra, rng);
            s.powerWatts = meter.read(app, ra, rng);
            return s;
        };
    }
};

} // namespace

TEST(ActiveSampling, CollectsExactBudgetDistinct)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("kmeans"), estimators::Metric::Performance);

    estimators::VarianceGuidedSampler sampler;
    auto obs = sampler.collect(w.measureFn(app), prior, 12, w.rng);
    EXPECT_EQ(obs.size(), 12u);
    std::vector<bool> seen(w.space.size(), false);
    for (std::size_t idx : obs.indices) {
        ASSERT_LT(idx, w.space.size());
        EXPECT_FALSE(seen[idx]);
        seen[idx] = true;
    }
}

TEST(ActiveSampling, BudgetClampedToSpace)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("x264"), estimators::Metric::Performance);
    estimators::VarianceGuidedSampler sampler;
    auto obs = sampler.collect(w.measureFn(app), prior, 999, w.rng);
    EXPECT_EQ(obs.size(), w.space.size());
}

TEST(ActiveSampling, EstimateQualityComparableToRandom)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("swish"), w.machine);
    auto loo = w.store.without("swish");
    auto prior = estimators::priorVectors(
        loo, estimators::Metric::Performance);
    auto gt = workloads::computeGroundTruth(app, w.space);

    estimators::VarianceGuidedSampler sampler;
    auto obs = sampler.collect(w.measureFn(app), prior, 10, w.rng);

    estimators::LeoEstimator leo;
    const double acc = stats::accuracy(
        leo.estimateMetric(w.space, prior, obs.indices,
                           obs.performance)
            .values,
        gt.performance);
    EXPECT_GT(acc, 0.85);
}

TEST(ActiveSampling, RejectsBadSetup)
{
    estimators::ActiveSamplingOptions bad;
    bad.seedProbes = 0;
    EXPECT_THROW(estimators::VarianceGuidedSampler{bad}, FatalError);

    World w;
    estimators::VarianceGuidedSampler sampler;
    auto noop = [](std::size_t idx) {
        return telemetry::Sample{idx, 1.0, 1.0};
    };
    EXPECT_THROW(sampler.collect(noop, {}, 4, w.rng), FatalError);
}

TEST(ActiveSampling, DetectsMisbehavingCallback)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("lud"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("lud"), estimators::Metric::Performance);
    estimators::VarianceGuidedSampler sampler;
    auto wrong = [](std::size_t) {
        return telemetry::Sample{0, 1.0, 1.0}; // always config 0
    };
    EXPECT_THROW(sampler.collect(wrong, prior, 6, w.rng),
                 FatalError);
}

/**
 * Guidance fits that skip the n-vector variance expansion
 * (expandVariance = false) must select exactly the probes the
 * expanded path selects: lowRankPredictiveVariance evaluates each
 * candidate bitwise identically to the expanded fill, so the whole
 * collected observation set matches.
 */
TEST(ActiveSampling, FactoredVarianceMatchesExpandedPath)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("kmeans"), estimators::Metric::Performance);

    auto run = [&](bool expand) {
        estimators::ActiveSamplingOptions opt;
        opt.estimator.expandVariance = expand;
        estimators::VarianceGuidedSampler sampler(opt);
        // Fresh, identically seeded streams per run so both paths
        // see the same measurements and the same seed probes.
        stats::Rng meas(11);
        stats::Rng sel(17);
        auto measure = [&](std::size_t idx) {
            telemetry::Sample s;
            s.configIndex = idx;
            const auto &ra = w.space.assignment(idx);
            s.heartbeatRate = w.monitor.measureRate(app, ra, meas);
            s.powerWatts = w.meter.read(app, ra, meas);
            return s;
        };
        return sampler.collect(measure, prior, 14, sel);
    };

    const auto expanded = run(true);
    const auto factored = run(false);
    ASSERT_EQ(expanded.indices, factored.indices);
    for (std::size_t i = 0; i < expanded.size(); ++i) {
        EXPECT_EQ(expanded.performance[i], factored.performance[i]);
        EXPECT_EQ(expanded.power[i], factored.power[i]);
    }
}

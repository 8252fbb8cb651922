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
 * Guidance fits read each candidate's variance from the factors
 * (predictiveVarianceAt), which equals the entry of the full n-vector
 * expansion bit for bit. So the sampler collects exactly the probes
 * it collected when every fit still expanded the variance: the list
 * below was recorded from that expanded path with the same seeds.
 */
TEST(ActiveSampling, FactoredVarianceMatchesExpandedPath)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("kmeans"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("kmeans"), estimators::Metric::Performance);

    estimators::VarianceGuidedSampler sampler;
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
    const auto obs = sampler.collect(measure, prior, 14, sel);

    const std::vector<std::size_t> expanded_picks = {
        22, 1, 23, 0, 9, 8, 10, 11, 31, 30, 29, 28, 15, 16};
    EXPECT_EQ(obs.indices, expanded_picks);
}

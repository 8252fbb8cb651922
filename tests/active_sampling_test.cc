/**
 * @file
 * Tests for the variance-guided active sampler (extension).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "estimators/active_sampling.hh"
#include "linalg/error.hh"
#include "platform/config_space.hh"
#include "stats/metrics.hh"
#include "telemetry/meters.hh"
#include "telemetry/profile_store.hh"
#include "workloads/fields.hh"
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
 * A reading the controller would reject (zero, negative, NaN or
 * +inf, in the rate or the power) must not enter the observation set
 * or a guidance fit: collect() throws, naming the configuration and
 * the reading, whether the bad reading is a seed probe or a guided
 * one.
 */
TEST(ActiveSampling, RejectsUnusableReadings)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("blackscholes"), w.machine);
    auto prior = estimators::priorVectors(
        w.store.without("blackscholes"),
        estimators::Metric::Performance);
    const auto good = w.measureFn(app);
    const double bad_values[] = {
        0.0, -1.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()};
    for (const double bad : bad_values) {
        for (const bool rate : {true, false}) {
            // Probe 1 is a seed probe; probe 7 is guided by a fit.
            for (const std::size_t at : {1u, 7u}) {
                SCOPED_TRACE(::testing::Message()
                             << (rate ? "rate " : "power ") << bad
                             << " at probe " << at);
                std::size_t calls = 0;
                std::size_t bad_config = 0;
                auto measure = [&](std::size_t idx) {
                    telemetry::Sample s = good(idx);
                    if (++calls == at) {
                        bad_config = idx;
                        (rate ? s.heartbeatRate : s.powerWatts) = bad;
                    }
                    return s;
                };
                const estimators::VarianceGuidedSampler sampler;
                try {
                    (void)sampler.collect(measure, prior, 20, w.rng);
                    ADD_FAILURE() << "bad reading accepted";
                } catch (const FatalError &e) {
                    const std::string msg = e.what();
                    EXPECT_EQ(calls, at) << msg;
                    EXPECT_NE(msg.find("configuration " +
                                       std::to_string(bad_config) +
                                       " "),
                              std::string::npos)
                        << msg;
                    const std::string reading =
                        (rate ? "rate " : "power ") +
                        workloads::fields::formatNumber(bad);
                    EXPECT_NE(msg.find(reading), std::string::npos)
                        << msg;
                }
            }
        }
    }
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

/**
 * Every guidance round refits cold, through the sampler's shared basis
 * and reused workspace, so each round's refit is the fresh fit on the
 * observations so far: ranking the unobserved configurations by a
 * fresh fit's predictive variance, as the sampler ranks them, picks
 * exactly the batch the sampler measured next, in every round.
 */
TEST(ActiveSampling, GuidanceRefitEqualsFreshFit)
{
    constexpr std::size_t kSeed = 4;
    constexpr std::size_t kBatch = 4;
    constexpr std::size_t kBudget = 20;
    for (const char *name : {"kmeans", "swish", "x264", "bodytrack"}) {
        SCOPED_TRACE(name);
        World w;
        workloads::ApplicationModel app(workloads::profileByName(name),
                                        w.machine);
        const auto prior = estimators::priorVectors(
            w.store.without(name), estimators::Metric::Performance);
        estimators::VarianceGuidedSampler sampler;
        stats::Rng sel(23);
        const auto obs =
            sampler.collect(w.measureFn(app), prior, kBudget, sel);
        ASSERT_EQ(obs.size(), kBudget);

        const estimators::LeoEstimator fresh;
        const std::size_t n = w.space.size();
        for (std::size_t have = kSeed; have < kBudget; have += kBatch) {
            SCOPED_TRACE("round at " + std::to_string(have));
            const std::vector<std::size_t> idx(
                obs.indices.begin(),
                obs.indices.begin() + static_cast<std::ptrdiff_t>(have));
            linalg::Vector vals(have);
            for (std::size_t j = 0; j < have; ++j)
                vals[j] = obs.performance[j];
            const estimators::LeoFit fit =
                fresh.fitMetric(prior, idx, vals);

            std::vector<std::size_t> order;
            std::vector<double> variance(n, 0.0);
            for (std::size_t c = 0; c < n; ++c) {
                if (std::find(idx.begin(), idx.end(), c) != idx.end())
                    continue;
                order.push_back(c);
                variance[c] = fit.predictiveVarianceAt(c);
            }
            std::sort(order.begin(), order.end(),
                      [&](std::size_t a, std::size_t b) {
                          return variance[a] > variance[b];
                      });
            const std::vector<std::size_t> want(
                order.begin(),
                order.begin() + static_cast<std::ptrdiff_t>(kBatch));
            const std::vector<std::size_t> got(
                obs.indices.begin() + static_cast<std::ptrdiff_t>(have),
                obs.indices.begin() +
                    static_cast<std::ptrdiff_t>(have + kBatch));
            EXPECT_EQ(got, want);
        }
    }
}

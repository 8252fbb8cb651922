/**
 * @file
 * Tests for the LeoSystem facade and end-to-end integration.
 */

#include <gtest/gtest.h>

#include "core/leo_system.hh"
#include "linalg/error.hh"
#include "stats/metrics.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;

namespace
{

/** A small facade instance on the 32-point core-only space. */
core::LeoSystem
smallSystem(std::size_t budget = 8)
{
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    stats::Rng rng(5);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto prior = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, mon, met, rng);
    core::LeoSystemOptions opt;
    opt.sampleBudget = budget;
    return core::LeoSystem(machine, space, std::move(prior), opt);
}

} // namespace

TEST(LeoSystem, ObserveEstimateMinimize)
{
    auto sys = smallSystem();
    workloads::ApplicationModel target(
        workloads::profileByName("kmeans"), sys.machine());

    stats::Rng rng(13);
    auto obs = sys.observe(target, rng);
    EXPECT_EQ(obs.size(), 8u);

    auto est = sys.estimate(obs, "kmeans");
    EXPECT_EQ(est.performance.values.size(), sys.space().size());

    auto gt = workloads::computeGroundTruth(target, sys.space());
    EXPECT_GT(stats::accuracy(est.performance.values,
                              gt.performance),
              0.8);
    EXPECT_GT(stats::accuracy(est.power.values, gt.power), 0.9);

    // Minimize energy for a mid-range demand.
    optimizer::PerformanceConstraint c;
    c.deadlineSeconds = 10.0;
    c.work = 0.5 * gt.performance.max() * c.deadlineSeconds;
    auto plan = sys.minimizeEnergy(est, c);
    EXPECT_TRUE(plan.feasible);
    auto result = optimizer::executeSchedule(
        plan, gt.performance, gt.power,
        sys.machine().spec().idleSystemPowerW, c);
    EXPECT_TRUE(result.deadlineMet);

    // Near-optimal energy: within 15% of the oracle plan.
    auto best = optimizer::planMinimalEnergy(
        gt.performance, gt.power,
        sys.machine().spec().idleSystemPowerW, c);
    auto best_result = optimizer::executeSchedule(
        best, gt.performance, gt.power,
        sys.machine().spec().idleSystemPowerW, c);
    EXPECT_LT(result.energyJoules,
              best_result.energyJoules * 1.15);
}

TEST(LeoSystem, EstimateWithoutExclusionUsesWholePrior)
{
    auto sys = smallSystem();
    workloads::ApplicationModel target(
        workloads::profileByName("kmeans"), sys.machine());
    stats::Rng rng(17);
    auto obs = sys.observe(target, rng);

    // With kmeans itself in the prior the estimate should be at
    // least as good as the leave-one-out one.
    auto gt = workloads::computeGroundTruth(target, sys.space());
    auto with = sys.estimate(obs);
    auto without = sys.estimate(obs, "kmeans");
    const double acc_with =
        stats::accuracy(with.performance.values, gt.performance);
    const double acc_without = stats::accuracy(
        without.performance.values, gt.performance);
    EXPECT_GE(acc_with, acc_without - 0.05);
}

TEST(LeoSystem, RejectsMismatchedPrior)
{
    platform::Machine machine;
    auto space32 = platform::ConfigSpace::coreOnly(machine);
    auto space_full = platform::ConfigSpace::fullFactorial(machine);
    stats::Rng rng(5);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto prior32 = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space32, mon, met, rng);
    EXPECT_THROW(core::LeoSystem(machine, space_full,
                                 std::move(prior32)),
                 FatalError);
}

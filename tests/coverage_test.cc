/**
 * @file
 * Coverage tests for corners the module suites leave untouched.
 */

#include <gtest/gtest.h>

#include "core/leo_system.hh"
#include "estimators/leo.hh"
#include "linalg/error.hh"
#include "optimizer/schedule.hh"
#include "platform/config_space.hh"
#include "runtime/controller.hh"
#include "stats/rng.hh"
#include "workloads/suite.hh"

using namespace leo;
using linalg::Vector;

// -------------------------------------------------------------- Machine

TEST(MachineEdge, TurboSingleVsAllCore)
{
    platform::Machine m;
    // Turbo with 1 core beats turbo with 16 and both beat max DVFS.
    EXPECT_GT(m.frequencyGHz(15, 1), m.frequencyGHz(15, 16));
    EXPECT_GE(m.frequencyGHz(15, 16), m.frequencyGHz(14, 16));
}

TEST(MachineEdge, DescribeStrings)
{
    platform::Config cfg{8, 2, 1, 15};
    EXPECT_EQ(cfg.describe(), "8c x2 1m s15");
    platform::Machine m;
    auto space = platform::ConfigSpace::coreOnly(m);
    EXPECT_EQ(space.describe(4), "5 logical cores");
    EXPECT_EQ(space.name(), "cores32");
    auto full = platform::ConfigSpace::fullFactorial(m);
    EXPECT_EQ(full.name(), "full1024");
}

TEST(MachineEdge, CustomSpecValidation)
{
    platform::MachineSpec bad;
    bad.dvfsSteps = 1;
    EXPECT_THROW(platform::Machine{bad}, FatalError);
    bad = platform::MachineSpec{};
    bad.minFreqGHz = 3.0; // above max
    EXPECT_THROW(platform::Machine{bad}, FatalError);
}

// ------------------------------------------------------------ Scheduler

TEST(ScheduleEdge, ZeroWorkIsPureIdle)
{
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    optimizer::PerformanceConstraint c{0.0, 10.0};
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    auto run =
        optimizer::executeSchedule(plan, perf, power, 85.0, c);
    EXPECT_TRUE(run.deadlineMet);
    EXPECT_NEAR(run.energyJoules, 85.0 * 10.0, 1e-6);
}

TEST(ScheduleEdge, GuardedZeroWork)
{
    Vector perf{1.0};
    Vector power{100.0};
    optimizer::PerformanceConstraint c{0.0, 5.0};
    optimizer::Schedule empty;
    empty.parts.push_back({optimizer::kIdleConfig, 5.0});
    auto run = optimizer::executeScheduleGuarded(empty, perf, power,
                                                 85.0, c);
    EXPECT_TRUE(run.deadlineMet);
    EXPECT_NEAR(run.energyJoules, 85.0 * 5.0, 1e-6);
}

TEST(ScheduleEdge, RejectsBadConstraints)
{
    Vector perf{1.0};
    Vector power{100.0};
    optimizer::PerformanceConstraint bad{10.0, 0.0};
    EXPECT_THROW(
        optimizer::planMinimalEnergy(perf, power, 85.0, bad),
        FatalError);
    optimizer::PerformanceConstraint neg{-1.0, 10.0};
    EXPECT_THROW(
        optimizer::planMinimalEnergy(perf, power, 85.0, neg),
        FatalError);
}

// ----------------------------------------------------------- Controller

TEST(ControllerEdge, PacesCheapestFrontierConfigMeetingDemand)
{
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::ProfileStore empty_store{
        std::vector<telemetry::ApplicationRecord>{}};
    runtime::ControllerOptions opt;
    opt.targetRate = 3.0;
    runtime::EnergyController ctl(space, nullptr, empty_store, opt);

    // Synthetic estimates: rate grows with index, power too; the
    // frontier is the whole set. Demand 3.0 -> config 2 (rate 3).
    Vector perf(space.size()), power(space.size());
    for (std::size_t c = 0; c < space.size(); ++c) {
        perf[c] = static_cast<double>(c + 1);
        power[c] = 100.0 + 10.0 * static_cast<double>(c);
    }
    ctl.setEstimates(perf, power);
    stats::Rng rng(1);
    EXPECT_EQ(ctl.nextConfig(rng), 2u);
}

TEST(ControllerEdge, BoostClimbsOnMisses)
{
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::ProfileStore empty_store{
        std::vector<telemetry::ApplicationRecord>{}};
    runtime::ControllerOptions opt;
    opt.targetRate = 3.0;
    runtime::EnergyController ctl(space, nullptr, empty_store, opt);

    Vector perf(space.size()), power(space.size());
    for (std::size_t c = 0; c < space.size(); ++c) {
        perf[c] = static_cast<double>(c + 1);
        power[c] = 100.0 + 10.0 * static_cast<double>(c);
    }
    ctl.setEstimates(perf, power);
    stats::Rng rng(1);
    std::size_t cfg = ctl.nextConfig(rng);
    // Report persistent under-delivery; the pace must climb.
    for (int i = 0; i < 4; ++i) {
        ctl.recordMeasurement({cfg, 1.0, 120.0});
        cfg = ctl.nextConfig(rng);
    }
    EXPECT_GT(cfg, 2u);
}

// ----------------------------------------------------------- Estimators

TEST(EstimatorEdge, LeoHandlesDuplicateObservationIndices)
{
    // Measuring the same configuration twice is legal (two windows);
    // the fit must stay finite and anchored.
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    stats::Rng rng(3);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, mon, met, rng);

    auto prior = estimators::priorVectors(
        store.without("x264"), estimators::Metric::Performance);
    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(prior, {4, 4, 20},
                             Vector{100.0, 102.0, 160.0});
    EXPECT_TRUE(fit.prediction.allFinite());
    EXPECT_NEAR(fit.prediction[4], 101.0, 25.0);
}

TEST(EstimatorEdge, MetricEstimateDefaults)
{
    estimators::MetricEstimate e;
    EXPECT_TRUE(e.reliable);
    EXPECT_EQ(e.iterations, 0u);
    EXPECT_TRUE(e.values.empty());
}

// ---------------------------------------------------------------- Error

TEST(ErrorDiscipline, PanicVsFatal)
{
    EXPECT_THROW(panic("bug"), PanicError);
    EXPECT_THROW(fatal("user error"), FatalError);
    EXPECT_NO_THROW(require(true, "fine"));
    EXPECT_THROW(require(false, "nope"), FatalError);
    EXPECT_NO_THROW(invariant(true, "fine"));
    EXPECT_THROW(invariant(false, "broken"), PanicError);
    // Both are catchable as the common base.
    try {
        fatal("x");
    } catch (const Error &e) {
        EXPECT_NE(std::string(e.what()).find("fatal"),
                  std::string::npos);
    }
}

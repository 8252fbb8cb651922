/**
 * @file
 * Randomized robustness harness for the online pipeline.
 *
 * Sweeps fault scenarios x sampling policies x estimators through the
 * telemetry -> estimator -> optimizer -> runtime path and asserts the
 * robustness contract end to end:
 *
 *  - no crash: no estimator throw escapes the pipeline;
 *  - all outputs finite: estimates, plans and controller decisions;
 *  - the deadline guard still escalates under corrupted estimates;
 *  - zero-fault runs are bitwise identical (0 ULP) to the bare,
 *    unwrapped pipeline.
 *
 * This suite is the acceptance gate for the ASan+UBSan preset
 * (tools/run_asan_tests.sh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "estimators/sanitize.hh"
#include "faults/faults.hh"
#include "linalg/error.hh"
#include "optimizer/schedule.hh"
#include "runtime/controller.hh"
#include "scenario/spec.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;
using faults::FaultScenario;
using faults::FaultyHeartbeatMonitor;
using faults::FaultyPowerMeter;
using linalg::Vector;
using platform::ConfigSpace;
using platform::Machine;
using runtime::ControllerOptions;
using runtime::EnergyController;

namespace
{

struct World
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng rng{7};
    telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);

    ControllerOptions
    options(double rate, std::size_t budget = 6)
    {
        ControllerOptions o;
        o.targetRate = rate;
        o.sampleBudget = budget;
        o.idlePower = machine.spec().idleSystemPowerW;
        return o;
    }
};

struct NamedScenario
{
    std::string name;
    FaultScenario scenario;
};

/**
 * The fault sweep: each class alone, plus everything at once —
 * authored in the scenario DSL (scenario/spec.hh), so the sweep
 * exercises the same parser operators use, and the two nan-intensity
 * variants come from a grid expansion to prove the cells are a pure
 * function of the spec.
 */
std::vector<NamedScenario>
faultSweep()
{
    static const char *const kCells[] = {
        "name none\n",
        "name nan\nfault.nan 0.15\n",
        "name inf\nfault.inf 0.15\n",
        "name dropout\nfault.dropout 0.15\n",
        "name outlier\nfault.outlier 0.15\nfault.outlier_scale 25\n",
        "name stale\nfault.stale 0.25\n",
        "name mixed\nfault.nan 0.05\nfault.inf 0.05\n"
        "fault.dropout 0.05\nfault.outlier 0.05\nfault.stale 0.05\n",
    };
    std::vector<NamedScenario> sweep;
    for (const char *text : kCells) {
        const scenario::Spec spec = scenario::Spec::fromString(text);
        sweep.push_back({spec.name, spec.faults});
    }
    const scenario::Spec base = scenario::Spec::fromString("name nan\n");
    for (const scenario::Spec &spec : scenario::expandGrid(
             base, {{"fault.nan", {"0.05", "0.30"}}}))
        sweep.push_back({spec.name, spec.faults});
    return sweep;
}

/** An estimator that always fails mid-flight. */
class ThrowingEstimator : public estimators::Estimator
{
  public:
    std::string name() const override { return "throwing"; }

    estimators::MetricEstimate estimateMetric(
        const platform::ConfigSpace &, const std::vector<Vector> &,
        const std::vector<std::size_t> &,
        const Vector &) const override
    {
        fatal("synthetic estimator failure");
    }
};

/** Drive a controller for n windows against a live application. */
void
driveWindows(EnergyController &ctl,
             const workloads::ApplicationModel &app,
             const ConfigSpace &space,
             const telemetry::HeartbeatMonitor &monitor,
             const telemetry::PowerMeter &meter, stats::Rng &rng,
             std::size_t n, std::vector<std::size_t> *decisions = nullptr)
{
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t cfg = ctl.nextConfig(rng);
        ASSERT_LT(cfg, space.size());
        if (decisions)
            decisions->push_back(cfg);
        const auto &ra = space.assignment(cfg);
        ctl.recordMeasurement({cfg, monitor.measureRate(app, ra, rng),
                               meter.read(app, ra, rng)});
    }
}

} // namespace

// ------------------------------------------------------- FaultInjector

TEST(FaultInjector, DeterministicPerSeed)
{
    FaultScenario s;
    s.nanProb = 0.2;
    s.outlierProb = 0.2;
    s.staleProb = 0.2;
    faults::FaultInjector a(s), b(s);
    s.seed += 1;
    faults::FaultInjector c(s);
    bool any_differs = false;
    for (int i = 0; i < 200; ++i) {
        const double clean = 100.0 + i;
        const double va = a.corrupt(clean);
        const double vb = b.corrupt(clean);
        const double vc = c.corrupt(clean);
        // Same seed: identical stream (NaN == NaN via bit pattern).
        EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)));
        if (vc != va && !(std::isnan(vc) && std::isnan(va)))
            any_differs = true;
    }
    EXPECT_TRUE(any_differs);
    EXPECT_EQ(a.readings(), 200u);
    EXPECT_GT(a.faultsInjected(), 0u);
}

TEST(FaultInjector, ZeroScenarioIsIdentity)
{
    faults::FaultInjector inj(FaultScenario::none());
    for (int i = 0; i < 100; ++i) {
        const double clean = 3.25 * i + 0.125;
        EXPECT_EQ(inj.corrupt(clean), clean);
    }
    EXPECT_EQ(inj.faultsInjected(), 0u);
}

TEST(FaultInjector, RejectsBadProbabilities)
{
    FaultScenario s;
    s.nanProb = 0.8;
    s.infProb = 0.8;
    EXPECT_THROW(faults::FaultInjector{s}, FatalError);
    s = FaultScenario{};
    s.dropoutProb = -0.1;
    EXPECT_THROW(faults::FaultInjector{s}, FatalError);
}

TEST(FaultyMeters, ZeroFaultWrapperIsBitwiseIdentical)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const FaultyHeartbeatMonitor monitor(w.monitor,
                                         FaultScenario::none());
    const FaultyPowerMeter meter(w.meter, FaultScenario::none());
    stats::Rng ra(123), rb(123);
    for (std::size_t c = 0; c < w.space.size(); ++c) {
        const auto &assign = w.space.assignment(c);
        EXPECT_EQ(w.monitor.measureRate(app, assign, ra),
                  monitor.measureRate(app, assign, rb));
        EXPECT_EQ(w.meter.read(app, assign, ra),
                  meter.read(app, assign, rb));
    }
}

// ----------------------------------------------------------- Sanitizer

TEST(Sanitize, CleanSetPassesThroughUntouched)
{
    const std::vector<std::size_t> idx{3, 1, 7};
    const Vector vals{1.0, 2.0, 3.0};
    const auto out = estimators::sanitizeObservations(idx, vals, 10);
    EXPECT_FALSE(out.modified);
    EXPECT_EQ(out.rejected, 0u);
    EXPECT_EQ(out.merged, 0u);
    EXPECT_TRUE(estimators::observationsClean(idx, vals, 10));
}

TEST(Sanitize, RejectsNonFiniteAndNonPositive)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::size_t> idx{0, 1, 2, 3, 4, 12};
    const Vector vals{1.0, nan, inf, 0.0, -2.0, 5.0};
    const auto out = estimators::sanitizeObservations(idx, vals, 10);
    EXPECT_TRUE(out.modified);
    // NaN, Inf, 0, negative, out-of-range index: five rejects.
    EXPECT_EQ(out.rejected, 5u);
    ASSERT_EQ(out.indices.size(), 1u);
    EXPECT_EQ(out.indices[0], 0u);
    EXPECT_EQ(out.values[0], 1.0);
}

TEST(Sanitize, MergesDuplicateIndicesByAveraging)
{
    const std::vector<std::size_t> idx{2, 5, 2, 2};
    const Vector vals{1.0, 7.0, 2.0, 3.0};
    const auto out = estimators::sanitizeObservations(idx, vals, 10);
    EXPECT_TRUE(out.modified);
    EXPECT_EQ(out.merged, 2u);
    ASSERT_EQ(out.indices.size(), 2u);
    EXPECT_EQ(out.indices[0], 2u);
    EXPECT_EQ(out.indices[1], 5u);
    EXPECT_NEAR(out.values[0], 2.0, 1e-12);
    EXPECT_EQ(out.values[1], 7.0);
}

// ------------------------------------------- Estimator boundary sweep

TEST(RobustEstimators, FaultSweepNeverThrowsAndStaysFinite)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const auto prior = w.store.without("x264");

    const estimators::LeoEstimator leo;
    const estimators::OnlineEstimator online;
    const estimators::OfflineEstimator offline;
    const std::vector<const estimators::Estimator *> approaches{
        &leo, &online, &offline};

    const telemetry::RandomSampler random;
    const telemetry::UniformGridSampler grid;
    const std::vector<const telemetry::SamplingPolicy *> samplers{
        &random, &grid};

    for (const NamedScenario &ns : faultSweep()) {
        for (const telemetry::SamplingPolicy *policy : samplers) {
            SCOPED_TRACE(ns.name);
            const FaultyHeartbeatMonitor monitor(w.monitor,
                                                 ns.scenario);
            const FaultyPowerMeter meter(w.meter, ns.scenario);
            const telemetry::Profiler profiler(monitor, meter);
            stats::Rng rng(91);
            const telemetry::Observations obs = profiler.sample(
                app, w.space, *policy, 20, rng);
            for (const estimators::Estimator *approach : approaches) {
                SCOPED_TRACE(approach->name());
                const estimators::EstimationInputs inputs{
                    w.space, prior, obs};
                estimators::Estimate est;
                ASSERT_NO_THROW(est = approach->estimate(inputs));
                EXPECT_EQ(est.performance.values.size(),
                          w.space.size());
                EXPECT_EQ(est.power.values.size(), w.space.size());
                EXPECT_TRUE(est.performance.values.allFinite());
                EXPECT_TRUE(est.power.values.allFinite());
                // A finite estimate must also plan without throwing.
                Vector perf = est.performance.values;
                Vector power = est.power.values;
                for (std::size_t c = 0; c < w.space.size(); ++c) {
                    perf[c] += 1e-9;
                    power[c] += 1e-9;
                }
                const auto frontier =
                    optimizer::paretoFrontier(perf, power);
                EXPECT_FALSE(frontier.empty());
            }
        }
    }
}

TEST(RobustEstimators, ZeroFaultEstimatesBitwiseIdentical)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("bodytrack"), w.machine);
    const auto prior = w.store.without("bodytrack");

    const FaultyHeartbeatMonitor monitor(w.monitor,
                                         FaultScenario::none());
    const FaultyPowerMeter meter(w.meter, FaultScenario::none());
    const telemetry::Profiler bare(w.monitor, w.meter);
    const telemetry::Profiler wrapped(monitor, meter);
    const telemetry::RandomSampler policy;

    stats::Rng ra(17), rb(17);
    const auto obs_a = bare.sample(app, w.space, policy, 20, ra);
    const auto obs_b = wrapped.sample(app, w.space, policy, 20, rb);
    ASSERT_EQ(obs_a.indices, obs_b.indices);
    for (std::size_t j = 0; j < obs_a.size(); ++j) {
        EXPECT_EQ(obs_a.performance[j], obs_b.performance[j]);
        EXPECT_EQ(obs_a.power[j], obs_b.power[j]);
    }

    const estimators::LeoEstimator leo;
    const estimators::EstimationInputs in_a{w.space, prior, obs_a};
    const estimators::EstimationInputs in_b{w.space, prior, obs_b};
    const estimators::Estimate est_a = leo.estimate(in_a);
    const estimators::Estimate est_b = leo.estimate(in_b);
    ASSERT_EQ(est_a.performance.values.size(),
              est_b.performance.values.size());
    for (std::size_t c = 0; c < est_a.performance.values.size(); ++c) {
        EXPECT_EQ(est_a.performance.values[c],
                  est_b.performance.values[c]);
        EXPECT_EQ(est_a.power.values[c], est_b.power.values[c]);
    }
}

// --------------------------------------------------- Controller sweep

TEST(RobustController, FaultSweepSurvivesAndStaysFinite)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    auto gt = workloads::computeGroundTruth(app, w.space);
    const double demand = 0.5 * gt.performance.max();
    const auto prior = w.store.without("x264");

    for (const NamedScenario &ns : faultSweep()) {
        SCOPED_TRACE(ns.name);
        const FaultyHeartbeatMonitor monitor(w.monitor, ns.scenario);
        const FaultyPowerMeter meter(w.meter, ns.scenario);
        estimators::LeoEstimator leo;
        EnergyController ctl(w.space, &leo, prior,
                             w.options(demand, 6));
        stats::Rng rng(29);
        ASSERT_NO_FATAL_FAILURE(driveWindows(
            ctl, app, w.space, monitor, meter, rng, 80));
        if (ctl.hasEstimates()) {
            EXPECT_TRUE(ctl.performanceEstimate().allFinite());
            EXPECT_TRUE(ctl.powerEstimate().allFinite());
        }
        if (std::string(ns.name) == "none") {
            EXPECT_EQ(ctl.samplesRejected(), 0u);
            EXPECT_EQ(ctl.fitsFailed(), 0u);
            EXPECT_TRUE(ctl.hasEstimates());
        }
    }
}

TEST(RobustController, AllReadingsFaultedNeverFits)
{
    // Every power reading is NaN: the controller must reject every
    // sample, never reach a fit, and keep producing valid decisions.
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const auto prior = w.store.without("x264");
    FaultScenario s;
    s.nanProb = 1.0;
    const FaultyPowerMeter meter(w.meter, s);
    estimators::LeoEstimator leo;
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5));
    stats::Rng rng(31);
    driveWindows(ctl, app, w.space, w.monitor, meter, rng, 40);
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);
    EXPECT_EQ(ctl.samplesRejected(), 40u);
    EXPECT_FALSE(ctl.hasEstimates());
}

TEST(RobustController, OutOfBandSampleDoesNotSkipProbe)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const auto prior = w.store.without("x264");
    estimators::LeoEstimator leo;
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 4));

    const std::size_t cfg = ctl.nextConfig(w.rng);
    // An out-of-band measurement of a different configuration must
    // not advance the probe plan or enter the observation set.
    const std::size_t other = (cfg + 1) % w.space.size();
    const auto &ra_other = w.space.assignment(other);
    ctl.recordMeasurement({other,
                           w.monitor.measureRate(app, ra_other, w.rng),
                           w.meter.read(app, ra_other, w.rng)});
    EXPECT_EQ(ctl.nextConfig(w.rng), cfg);
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);

    // The planned probes still complete the round as usual.
    for (int i = 0; i < 4; ++i) {
        const std::size_t c = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(c);
        ctl.recordMeasurement({c, w.monitor.measureRate(app, ra, w.rng),
                               w.meter.read(app, ra, w.rng)});
    }
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
}

TEST(RobustController, ThrowingEstimatorFallsBackToPriorMean)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const auto prior = w.store.without("x264");
    const ThrowingEstimator thrower;
    EnergyController ctl(w.space, &thrower, prior, w.options(30.0, 4));

    stats::Rng rng(41);
    // Sampling round completes; the fit throws; the controller must
    // catch it, count it, and control on the prior-mean fallback.
    driveWindows(ctl, app, w.space, w.monitor, w.meter, rng, 4);
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
    EXPECT_EQ(ctl.fitsFailed(), 1u);
    EXPECT_TRUE(ctl.hasEstimates());
    EXPECT_TRUE(ctl.performanceEstimate().allFinite());
    EXPECT_TRUE(ctl.powerEstimate().allFinite());

    // The controller rides the fallback for exactly eight windows
    // (kFallbackBackoffWindows in controller.cc), then retries with
    // fresh probes (and fails again, forever, without ever throwing).
    driveWindows(ctl, app, w.space, w.monitor, w.meter, rng, 7);
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
    EXPECT_EQ(ctl.fallbackWindows(), 7u);
    driveWindows(ctl, app, w.space, w.monitor, w.meter, rng, 1);
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);
    EXPECT_EQ(ctl.fallbackWindows(), 8u);
    driveWindows(ctl, app, w.space, w.monitor, w.meter, rng, 20);
    EXPECT_GE(ctl.fitsFailed(), 2u);
}

TEST(RobustController, ThrowingEstimatorWithoutPriorRacesToIdle)
{
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    const telemetry::ProfileStore empty_prior(
        std::vector<telemetry::ApplicationRecord>{});
    const ThrowingEstimator thrower;
    EnergyController ctl(w.space, &thrower, empty_prior,
                         w.options(30.0, 4));

    stats::Rng rng(43);
    driveWindows(ctl, app, w.space, w.monitor, w.meter, rng, 4);
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
    EXPECT_EQ(ctl.fitsFailed(), 1u);
    // No prior: no estimates; the controller races the all-resources
    // configuration rather than guessing.
    EXPECT_FALSE(ctl.hasEstimates());
    EXPECT_EQ(ctl.nextConfig(rng), w.space.size() - 1);
}

// ------------------------------------------------------ Deadline guard

TEST(RobustGuard, EscalatesUnderCorruptedEstimates)
{
    // Estimates fitted from heavily faulted telemetry still yield
    // plans whose guarded execution meets a feasible deadline.
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("swaptions"), w.machine);
    const auto prior = w.store.without("swaptions");
    auto gt = workloads::computeGroundTruth(app, w.space);
    const double idle = w.machine.spec().idleSystemPowerW;

    for (const NamedScenario &ns : faultSweep()) {
        SCOPED_TRACE(ns.name);
        const FaultyHeartbeatMonitor monitor(w.monitor, ns.scenario);
        const FaultyPowerMeter meter(w.meter, ns.scenario);
        const telemetry::Profiler profiler(monitor, meter);
        const telemetry::RandomSampler policy;
        stats::Rng rng(53);
        const auto obs =
            profiler.sample(app, w.space, policy, 20, rng);
        const estimators::LeoEstimator leo;
        const estimators::EstimationInputs inputs{w.space, prior, obs};
        const estimators::Estimate est = leo.estimate(inputs);
        ASSERT_TRUE(est.performance.values.allFinite());

        optimizer::PerformanceConstraint constraint;
        constraint.deadlineSeconds = 10.0;
        constraint.work = 0.5 * gt.performance.max() * 10.0;
        const optimizer::Schedule plan = optimizer::planMinimalEnergy(
            est.performance.values, est.power.values, idle,
            constraint);
        EXPECT_TRUE(std::isfinite(plan.predictedEnergy));
        const optimizer::ExecutionResult run =
            optimizer::executeScheduleGuarded(plan, gt.performance,
                                              gt.power, idle,
                                              constraint);
        EXPECT_TRUE(run.deadlineMet);
        EXPECT_TRUE(std::isfinite(run.energyJoules));
    }
}

// ------------------------------------------------ 0-ULP clean identity

TEST(RobustPipeline, ZeroFaultControllerBitwiseIdenticalToBare)
{
    // The whole closed loop — wrapped in zero-fault injectors, with
    // all sanitization engaged — must reproduce the bare pipeline's
    // decisions and fit outputs exactly (0 ULP).
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    auto gt = workloads::computeGroundTruth(app, w.space);
    const double demand = 0.5 * gt.performance.max();
    const auto prior = w.store.without("x264");

    const FaultyHeartbeatMonitor monitor(w.monitor,
                                         FaultScenario::none());
    const FaultyPowerMeter meter(w.meter, FaultScenario::none());

    estimators::LeoEstimator leo_a, leo_b;
    EnergyController bare(w.space, &leo_a, prior,
                          w.options(demand, 6));
    EnergyController wrapped(w.space, &leo_b, prior,
                             w.options(demand, 6));
    stats::Rng ra(61), rb(61);
    std::vector<std::size_t> dec_a, dec_b;
    driveWindows(bare, app, w.space, w.monitor, w.meter, ra, 60,
                 &dec_a);
    driveWindows(wrapped, app, w.space, monitor, meter, rb, 60,
                 &dec_b);

    EXPECT_EQ(dec_a, dec_b);
    ASSERT_TRUE(bare.hasEstimates());
    ASSERT_TRUE(wrapped.hasEstimates());
    ASSERT_EQ(bare.performanceEstimate().size(),
              wrapped.performanceEstimate().size());
    for (std::size_t c = 0; c < bare.performanceEstimate().size();
         ++c) {
        EXPECT_EQ(bare.performanceEstimate()[c],
                  wrapped.performanceEstimate()[c]);
        EXPECT_EQ(bare.powerEstimate()[c], wrapped.powerEstimate()[c]);
    }
    EXPECT_EQ(wrapped.samplesRejected(), 0u);
    EXPECT_EQ(wrapped.fitsFailed(), 0u);
    EXPECT_EQ(wrapped.fallbackWindows(), 0u);
}

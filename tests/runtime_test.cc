/**
 * @file
 * Unit tests for the runtime controller and the phased closed loop.
 */

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "linalg/error.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "runtime/controller.hh"
#include "runtime/phased_run.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;
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

} // namespace

TEST(Controller, SamplesThenControls)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("x264");
    EnergyController ctl(w.space, &leo, prior, w.options(40.0, 5));
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);

    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    for (int i = 0; i < 5; ++i) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement(
            {cfg, w.monitor.measureRate(app, ra, w.rng),
             w.meter.read(app, ra, w.rng)});
    }
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
    EXPECT_TRUE(ctl.hasEstimates());
    EXPECT_EQ(ctl.performanceEstimate().size(), w.space.size());
}

TEST(Controller, OracleStartsControlling)
{
    World w;
    EnergyController ctl(w.space, nullptr, w.store,
                         w.options(30.0));
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);

    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);
    auto gt = workloads::computeGroundTruth(app, w.space);
    ctl.setEstimates(gt.performance, gt.power);
    const std::size_t cfg = ctl.nextConfig(w.rng);
    EXPECT_LT(cfg, w.space.size());
}

TEST(Controller, DriftTriggersReestimation)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    ControllerOptions opt = w.options(30.0, 5);
    opt.driftWindow = 2;
    opt.driftThreshold = 0.2;
    EnergyController ctl(w.space, &leo, prior, opt);

    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    // Sampling phase.
    while (ctl.state() == EnergyController::State::Sampling) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement(
            {cfg, w.monitor.measureRate(app, ra, w.rng),
             w.meter.read(app, ra, w.rng)});
    }
    EXPECT_EQ(ctl.reestimations(), 0u);

    // Establish a steady measurement history at the operating point,
    // then feed a step change (the application entered a new phase).
    // Drift is judged against the configuration's own history, so
    // the steady stretch must not trigger, and the step must.
    for (int i = 0; i < 6; ++i) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement({cfg, app.heartbeatRate(ra),
                               app.powerWatts(ra)});
    }
    EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
    EXPECT_EQ(ctl.reestimations(), 0u);

    for (int i = 0; i < 5 &&
                    ctl.state() == EnergyController::State::Controlling;
         ++i) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        // The new phase runs 1.6x faster everywhere.
        ctl.recordMeasurement({cfg, 1.6 * app.heartbeatRate(ra),
                               app.powerWatts(ra)});
    }
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);
    EXPECT_EQ(ctl.reestimations(), 1u);
}

/**
 * A standalone controller builds its prior bases inside its first
 * LEO fit — never at construction — and reuses them for the
 * drift-triggered warm refit: one build per metric in total.
 */
TEST(Controller, BuildsOnePriorBasisPerMetricAcrossRefits)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    ControllerOptions opt = w.options(30.0, 5);
    opt.driftWindow = 2;
    auto built = [] {
        return obs::Registry::global()
            .counter(obs::names::kEmPriorBasisBuilt)
            .value();
    };
    const std::uint64_t before = built();
    EnergyController ctl(w.space, &leo, prior, opt);
    EXPECT_EQ(built() - before, 0u);

    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    auto step = [&](double speedup) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement({cfg, speedup * app.heartbeatRate(ra),
                               app.powerWatts(ra)});
    };
    while (ctl.state() == EnergyController::State::Sampling)
        step(1.0);
    EXPECT_EQ(built() - before, 2u);
    ASSERT_FALSE(ctl.warmPerfFit()->warmStarted);

    for (int i = 0; i < 6; ++i)
        step(1.0);
    for (int i = 0;
         i < 5 && ctl.state() == EnergyController::State::Controlling;
         ++i)
        step(1.6);
    ASSERT_EQ(ctl.reestimations(), 1u);
    while (ctl.state() == EnergyController::State::Sampling)
        step(1.6);
    EXPECT_TRUE(ctl.warmPerfFit()->warmStarted);
    EXPECT_TRUE(ctl.warmPowerFit()->warmStarted);
    EXPECT_EQ(built() - before, 2u);
}

TEST(Controller, GradientAscentMeetsDemand)
{
    // Feed an oracle controller estimates that UNDERSTATE the needed
    // configuration; the guard must climb the hull until the demand
    // is met.
    World w;
    workloads::ApplicationModel app(
        workloads::profileByName("swaptions"), w.machine);
    auto gt = workloads::computeGroundTruth(app, w.space);

    // Demand achievable only near the top of the hull.
    const double demand = 0.8 * gt.performance.max();
    EnergyController ctl(w.space, nullptr, w.store,
                         w.options(demand));
    // Corrupt estimates: claim every config is 3x faster than truth,
    // tempting the controller toward slow configs.
    ctl.setEstimates(gt.performance * 3.0, gt.power);

    double last_rate = 0.0;
    for (int i = 0; i < 60; ++i) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        const double rate = app.heartbeatRate(ra);
        ctl.recordMeasurement({cfg, rate, app.powerWatts(ra)});
        last_rate = rate;
    }
    EXPECT_GE(last_rate, demand * 0.9);
}

TEST(Controller, RejectsBadOptions)
{
    World w;
    ControllerOptions bad = w.options(0.0);
    estimators::LeoEstimator leo;
    EXPECT_THROW(EnergyController(w.space, &leo, w.store, bad),
                 FatalError);
}

// ------------------------------------------------------------ PhasedRun

TEST(PhasedRun, OracleMeetsDemandInBothPhases)
{
    World w;
    auto app = workloads::PhasedApplication::fluidanimateTwoPhase(30);
    // Demand achievable in both phases: ~60% of phase-1 peak.
    workloads::ApplicationModel heavy(app.phases()[0].profile,
                                      w.machine);
    auto gt = workloads::computeGroundTruth(heavy, w.space);
    const double demand = 0.6 * gt.performance.max();

    auto result = runtime::runPhased(app, w.machine, w.space, nullptr,
                                     w.store, w.options(demand),
                                     w.rng);
    EXPECT_EQ(result.trace.size(), 60u);
    EXPECT_EQ(result.phaseEnergy.size(), 2u);
    EXPECT_GT(result.deadlineHitRate, 0.9);
    // Phase 2 needs 2/3 the resources: oracle spends less energy.
    EXPECT_LT(result.phaseEnergy[1], result.phaseEnergy[0]);
}

TEST(PhasedRun, LeoAdaptsToPhaseChange)
{
    World w;
    auto app = workloads::PhasedApplication::fluidanimateTwoPhase(40);
    workloads::ApplicationModel heavy(app.phases()[0].profile,
                                      w.machine);
    auto gt = workloads::computeGroundTruth(heavy, w.space);
    const double demand = 0.6 * gt.performance.max();

    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    ControllerOptions opt = w.options(demand, 6);
    opt.driftWindow = 3;
    auto result = runtime::runPhased(app, w.machine, w.space, &leo,
                                     prior, opt, w.rng);
    // The phase change must have been noticed.
    EXPECT_GE(result.reestimations, 1u);
    // And the controller still hits most frames.
    EXPECT_GT(result.deadlineHitRate, 0.6);
}

TEST(PhasedRun, LeoNearOracleEnergy)
{
    // The Table 1 property, loosened: LEO's total energy lands
    // within 35% of the oracle on the phased workload.
    World w;
    auto app = workloads::PhasedApplication::fluidanimateTwoPhase(40);
    workloads::ApplicationModel heavy(app.phases()[0].profile,
                                      w.machine);
    auto gt = workloads::computeGroundTruth(heavy, w.space);
    const double demand = 0.55 * gt.performance.max();

    stats::Rng rng_a(11), rng_b(11);
    auto oracle = runtime::runPhased(app, w.machine, w.space, nullptr,
                                     w.store, w.options(demand),
                                     rng_a);
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    auto mine = runtime::runPhased(app, w.machine, w.space, &leo,
                                   prior, w.options(demand, 6),
                                   rng_b);
    EXPECT_GT(oracle.totalEnergy, 0.0);
    EXPECT_LT(mine.totalEnergy, oracle.totalEnergy * 1.35);
}

// --------------------------------- Auto representation default

/**
 * ControllerOptions defaults to CovarianceRep::Auto, and on the
 * small test spaces Auto resolves to Dense — so the default-option
 * schedule is bitwise what it was when Dense was the default.
 */
TEST(Controller, AutoRepresentationDefaultPreservesDenseSchedule)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("x264");
    workloads::ApplicationModel app(
        workloads::profileByName("x264"), w.machine);

    ASSERT_EQ(ControllerOptions{}.representation,
              estimators::CovarianceRep::Auto);

    auto run = [&](estimators::CovarianceRep rep) {
        ControllerOptions o = w.options(40.0, 5);
        o.representation = rep;
        EnergyController ctl(w.space, &leo, prior, o);
        stats::Rng rng(23);
        std::vector<std::size_t> schedule;
        for (int i = 0; i < 20; ++i) {
            const std::size_t cfg = ctl.nextConfig(rng);
            schedule.push_back(cfg);
            const auto &ra = w.space.assignment(cfg);
            ctl.recordMeasurement(
                {cfg, w.monitor.measureRate(app, ra, rng),
                 w.meter.read(app, ra, rng)});
        }
        return schedule;
    };

    EXPECT_EQ(run(estimators::CovarianceRep::Auto),
              run(estimators::CovarianceRep::Dense));
}

// ------------------------------------------ state snapshot/restore

/**
 * A controller serialized mid-run and restored into a fresh instance
 * continues exactly the uninterrupted schedule.
 */
TEST(Controller, SaveRestoreResumesScheduleBitwise)
{
    World w;
    estimators::LeoOptions lopt;
    lopt.representation = estimators::CovarianceRep::LowRank;
    estimators::LeoEstimator leo(lopt);
    auto prior = w.store.without("fluidanimate");
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);

    ControllerOptions o = w.options(30.0, 5);
    o.onlineSampleWindow = 8;
    o.refitMode = runtime::RefitMode::Incremental;
    EnergyController ctl(w.space, &leo, prior, o);
    stats::Rng rng(31);

    auto window = [&](EnergyController &c, stats::Rng &r) {
        const std::size_t cfg = c.nextConfig(r);
        const auto &ra = w.space.assignment(cfg);
        c.recordMeasurement({cfg,
                             w.monitor.measureRate(app, ra, r),
                             w.meter.read(app, ra, r)});
        return cfg;
    };
    for (int i = 0; i < 18; ++i)
        window(ctl, rng);

    linalg::ByteWriter wtr;
    ctl.saveState(wtr);
    // The RNG travels alongside in the real snapshot path; fork a
    // copy here so both continuations draw the same stream.
    const std::string blob = wtr.take();
    EnergyController twin(w.space, &leo, prior, o);
    linalg::ByteReader rdr(blob);
    ASSERT_TRUE(twin.restoreState(rdr));
    ASSERT_TRUE(rdr.ok());
    EXPECT_EQ(twin.state(), ctl.state());

    stats::Rng rng_a(77), rng_b(77);
    stats::Rng meas_a(78), meas_b(78);
    for (int i = 0; i < 16; ++i) {
        const std::size_t ca = ctl.nextConfig(rng_a);
        const std::size_t cb = twin.nextConfig(rng_b);
        ASSERT_EQ(ca, cb) << "window " << i;
        const auto &ra = w.space.assignment(ca);
        const telemetry::Sample s{
            ca, w.monitor.measureRate(app, ra, meas_a),
            w.meter.read(app, ra, meas_a)};
        (void)w.monitor.measureRate(app, ra, meas_b);
        (void)w.meter.read(app, ra, meas_b);
        ctl.recordMeasurement(s);
        twin.recordMeasurement(s);
    }
}

TEST(Controller, RestoreRejectsTruncatedState)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("x264");
    EnergyController ctl(w.space, &leo, prior, w.options(40.0, 5));
    linalg::ByteWriter wtr;
    ctl.saveState(wtr);
    const std::string blob = wtr.take();
    const std::string cut = blob.substr(0, blob.size() / 3);
    EnergyController twin(w.space, &leo, prior, w.options(40.0, 5));
    linalg::ByteReader rdr(cut);
    EXPECT_FALSE(twin.restoreState(rdr));
    // A failed restore resets to a fresh sampling controller.
    EXPECT_EQ(twin.state(), EnergyController::State::Sampling);
}

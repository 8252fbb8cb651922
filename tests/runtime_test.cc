/**
 * @file
 * Unit tests for the runtime controller. The closed loop that drives
 * it frame by frame is scenario::runScenario (scenario_test).
 */

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "linalg/error.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "runtime/controller.hh"
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

// ------------------------------------------ state snapshot/restore

/**
 * A controller serialized mid-run and restored into a fresh instance
 * continues exactly the uninterrupted schedule.
 */
TEST(Controller, SaveRestoreResumesScheduleBitwise)
{
    World w;
    estimators::LeoEstimator leo;
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

/**
 * A controller's fits are rebuilt on its own prior bases, so a blob
 * restored into a controller on another leave-one-out prior fails
 * closed and resumes Sampling, instead of pacing from fits whose basis
 * its prior does not have.
 */
TEST(Controller, RestoreRejectsOtherPrior)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    const ControllerOptions o = w.options(30.0, 5);
    EnergyController ctl(w.space, &leo, prior, o);
    stats::Rng rng(31);
    while (ctl.state() == EnergyController::State::Sampling) {
        const std::size_t cfg = ctl.nextConfig(rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement({cfg, w.monitor.measureRate(app, ra, rng),
                               w.meter.read(app, ra, rng)});
    }
    ASSERT_NE(ctl.warmPerfFit(), nullptr);
    linalg::ByteWriter wtr;
    ctl.saveState(wtr);
    const std::string blob = wtr.take();

    EnergyController same(w.space, &leo, prior, o);
    linalg::ByteReader ok(blob);
    ASSERT_TRUE(same.restoreState(ok));
    EXPECT_EQ(same.state(), EnergyController::State::Controlling);

    auto other = w.store.without("x264");
    EnergyController twin(w.space, &leo, other, o);
    linalg::ByteReader rdr(blob);
    EXPECT_FALSE(twin.restoreState(rdr));
    EXPECT_EQ(twin.state(), EnergyController::State::Sampling);
    EXPECT_FALSE(twin.hasEstimates());
    EXPECT_EQ(twin.warmPerfFit(), nullptr);
}

/**
 * A controller blob carrying both fits, cut at any offset, fails
 * closed into fresh Sampling state; the whole blob restores. A
 * six-app prior keeps the blob small enough to cut everywhere.
 */
TEST(Controller, RestoreFailsClosedAtEveryTruncation)
{
    World w;
    estimators::LeoEstimator leo;
    const telemetry::ProfileStore loo = w.store.without("fluidanimate");
    const telemetry::ProfileStore prior(
        std::vector<telemetry::ApplicationRecord>(
            loo.records().begin(), loo.records().begin() + 6));
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    const ControllerOptions o = w.options(30.0, 5);
    EnergyController ctl(w.space, &leo, prior, o);
    stats::Rng rng(31);
    for (int i = 0; i < 9; ++i) {
        const std::size_t cfg = ctl.nextConfig(rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement({cfg, w.monitor.measureRate(app, ra, rng),
                               w.meter.read(app, ra, rng)});
    }
    ASSERT_NE(ctl.warmPerfFit(), nullptr);
    linalg::ByteWriter wtr;
    ctl.saveState(wtr);
    const std::string blob = wtr.take();

    EnergyController twin(w.space, &leo, prior, o);
    for (std::size_t cut = 0; cut < blob.size(); ++cut) {
        const std::string part(blob, 0, cut);
        linalg::ByteReader rdr(part);
        ASSERT_FALSE(twin.restoreState(rdr)) << "cut at " << cut;
        ASSERT_EQ(twin.state(), EnergyController::State::Sampling)
            << "cut at " << cut;
        ASSERT_FALSE(twin.hasEstimates()) << "cut at " << cut;
    }
    linalg::ByteReader whole(blob);
    EXPECT_TRUE(twin.restoreState(whole));
    EXPECT_TRUE(whole.atEnd());
    EXPECT_EQ(twin.state(), ctl.state());
}

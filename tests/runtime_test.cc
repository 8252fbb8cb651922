/**
 * @file
 * Unit tests for the runtime controller. The closed loop that drives
 * it frame by frame is scenario::runScenario (scenario_test).
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"
#include "estimators/prior_basis.hh"
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

    const ControllerOptions o = w.options(30.0, 5);
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

/**
 * A standalone save is sized by a counting pass and written in one
 * allocation: the buffer ends exactly full, and the bytes are the
 * ones the same controller writes into a writer that already holds a
 * prefix (the service snapshot's path, which grows as it goes).
 */
TEST(Controller, StandaloneSaveAllocatesOnce)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5));
    for (int i = 0; i < 12; ++i) {
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement(
            {cfg, app.heartbeatRate(ra), app.powerWatts(ra)});
    }
    ASSERT_NE(ctl.warmPerfFit(), nullptr);

    linalg::ByteWriter alone;
    ctl.saveState(alone);
    EXPECT_EQ(alone.bytes().capacity(), alone.bytes().size());

    linalg::ByteWriter prefixed;
    prefixed.u64(42);
    ctl.saveState(prefixed);
    EXPECT_EQ(prefixed.bytes().substr(8), alone.bytes());

    linalg::ByteWriter counted = linalg::ByteWriter::counter();
    ctl.saveState(counted);
    EXPECT_EQ(counted.size(), alone.size());
    EXPECT_TRUE(counted.bytes().empty());
}

/**
 * A fit shares its prior basis instead of copying it, so a copy
 * outlives the controller and the PriorBases that built it: it keeps
 * the basis alive, answers variance queries with the same bits, and
 * warm-starts a fit on an equal-content basis to the bits the live fit
 * gave on the original one.
 */
TEST(Controller, FitOutlivesItsControllerAndBases)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);

    estimators::LeoFit copy;
    std::weak_ptr<const estimators::PriorBasis> weak;
    std::vector<std::size_t> idx;
    Vector vals;
    std::vector<double> variance;
    estimators::LeoFit live_warm;
    {
        auto bases = estimators::PriorBases::build(prior);
        EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5),
                             bases);
        while (ctl.state() == EnergyController::State::Sampling) {
            const std::size_t cfg = ctl.nextConfig(w.rng);
            const auto &ra = w.space.assignment(cfg);
            ctl.recordMeasurement(
                {cfg, app.heartbeatRate(ra), app.powerWatts(ra)});
        }
        ASSERT_NE(ctl.warmPerfFit(), nullptr);
        copy = *ctl.warmPerfFit();
        ASSERT_EQ(copy.prior, bases->perf);
        weak = bases->perf;
        for (std::size_t c = 0; c < w.space.size(); ++c)
            variance.push_back(copy.predictiveVarianceAt(c));

        idx = ctl.observations().indices;
        vals = ctl.observations().performance;
        const std::size_t extra = (idx.back() + 7) % w.space.size();
        idx.push_back(extra);
        vals.push_back(app.heartbeatRate(w.space.assignment(extra)));
        live_warm = leo.fitMetric(bases->perf, idx, vals, nullptr,
                                  ctl.warmPerfFit());
        ASSERT_TRUE(live_warm.warmStarted);
    }
    // The controller and its bases are gone; the copy and the live
    // refit hold the last references to the perf basis.
    ASSERT_FALSE(weak.expired());
    EXPECT_EQ(copy.prior.use_count(), 2);
    EXPECT_EQ(live_warm.prior, copy.prior);
    for (std::size_t c = 0; c < w.space.size(); ++c)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.predictiveVarianceAt(c)),
                  std::bit_cast<std::uint64_t>(variance[c]))
            << "config " << c;

    const auto rebuilt = std::make_shared<const estimators::PriorBasis>(
        estimators::priorVectors(prior, estimators::Metric::Performance));
    ASSERT_NE(rebuilt, copy.prior);
    ASSERT_EQ(rebuilt->fingerprint(), copy.prior->fingerprint());
    const estimators::LeoFit warm =
        leo.fitMetric(rebuilt, idx, vals, nullptr, &copy);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_EQ(warm.iterations, live_warm.iterations);
    for (std::size_t c = 0; c < w.space.size(); ++c) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(warm.prediction[c]),
                  std::bit_cast<std::uint64_t>(live_warm.prediction[c]))
            << "config " << c;
        ASSERT_EQ(std::bit_cast<std::uint64_t>(warm.mu[c]),
                  std::bit_cast<std::uint64_t>(live_warm.mu[c]))
            << "config " << c;
    }
    ASSERT_EQ(warm.rank(), live_warm.rank());
    for (std::size_t a = 0; a < warm.rank(); ++a)
        for (std::size_t b = 0; b < warm.rank(); ++b) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(warm.coeff(a, b)),
                      std::bit_cast<std::uint64_t>(live_warm.coeff(a, b)));
            ASSERT_EQ(std::bit_cast<std::uint64_t>(warm.varCore(a, b)),
                      std::bit_cast<std::uint64_t>(live_warm.varCore(a, b)));
        }

    copy = estimators::LeoFit{};
    live_warm = estimators::LeoFit{};
    EXPECT_TRUE(weak.expired());
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

/**
 * The blob opens with its format version. A blob of the previous
 * format (v1, which also carried two per-window refitter states) fails
 * closed: the controller, though it held a restored run, drops to
 * fresh Sampling state with no estimates or fits left over.
 */
TEST(Controller, RestoreRejectsOlderFormatVersion)
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
    linalg::ByteWriter wtr;
    ctl.saveState(wtr);
    std::string blob = wtr.take();
    // The version is the leading little-endian u32.
    ASSERT_EQ(blob.substr(0, 4), std::string("\x02\0\0\0", 4));

    EnergyController twin(w.space, &leo, prior, o);
    linalg::ByteReader current(blob);
    ASSERT_TRUE(twin.restoreState(current));
    ASSERT_TRUE(twin.hasEstimates());
    ASSERT_NE(twin.warmPerfFit(), nullptr);

    blob[0] = 1;
    linalg::ByteReader old(blob);
    EXPECT_FALSE(twin.restoreState(old));
    EXPECT_EQ(twin.state(), EnergyController::State::Sampling);
    EXPECT_FALSE(twin.hasEstimates());
    EXPECT_EQ(twin.warmPerfFit(), nullptr);
    EXPECT_TRUE(twin.observations().indices.empty());
}

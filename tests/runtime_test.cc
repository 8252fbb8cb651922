/**
 * @file
 * Unit tests for the runtime controller. The closed loop that drives
 * it frame by frame is scenario::runScenario (scenario_test).
 */

#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "estimators/estimator.hh"
#include "estimators/leo.hh"
#include "estimators/prior_basis.hh"
#include "linalg/error.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "runtime/controller.hh"
#include "support/fit_compare.hh"
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
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5));

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

    // The new phase runs 1.6x faster everywhere. Three consecutive
    // drifting windows (kDriftWindow in controller.cc) re-estimate;
    // two do not.
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(ctl.state(), EnergyController::State::Controlling)
            << "after " << i << " drifting windows";
        const std::size_t cfg = ctl.nextConfig(w.rng);
        const auto &ra = w.space.assignment(cfg);
        ctl.recordMeasurement({cfg, 1.6 * app.heartbeatRate(ra),
                               app.powerWatts(ra)});
    }
    EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);
    EXPECT_EQ(ctl.reestimations(), 1u);
}

/**
 * A standalone controller builds its prior bases inside its first
 * LEO fit — never at construction — and reuses them for the
 * drift-triggered refit: one build per metric in total.
 */
TEST(Controller, BuildsOnePriorBasisPerMetricAcrossRefits)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    const ControllerOptions opt = w.options(30.0, 5);
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
    ASSERT_NE(ctl.warmPerfFit(), nullptr);
    const auto perf_basis = ctl.warmPerfFit()->prior;
    const auto power_basis = ctl.warmPowerFit()->prior;

    for (int i = 0; i < 6; ++i)
        step(1.0);
    for (int i = 0;
         i < 5 && ctl.state() == EnergyController::State::Controlling;
         ++i)
        step(1.6);
    ASSERT_EQ(ctl.reestimations(), 1u);
    while (ctl.state() == EnergyController::State::Sampling)
        step(1.6);
    EXPECT_EQ(ctl.warmPerfFit()->prior, perf_basis);
    EXPECT_EQ(ctl.warmPowerFit()->prior, power_basis);
    EXPECT_EQ(built() - before, 2u);
}

/**
 * Every fit runs cold, so a refit is a pure function of the prior and
 * its observations: after a drift-triggered re-probe, both estimates
 * and both fits equal a fresh fit on observations() and the same
 * basis bit for bit, though the controller's arena and fits have
 * served a fit before.
 */
TEST(Controller, RefitEqualsFreshFit)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    const auto bases = estimators::PriorBases::build(prior);
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5),
                         bases);
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
    for (int i = 0; i < 6; ++i)
        step(1.0);
    for (int i = 0;
         i < 5 && ctl.state() == EnergyController::State::Controlling;
         ++i)
        step(1.6);
    ASSERT_EQ(ctl.reestimations(), 1u);
    while (ctl.state() == EnergyController::State::Sampling)
        step(1.6);
    ASSERT_TRUE(ctl.hasEstimates());

    const telemetry::Observations &obs = ctl.observations();
    estimators::LeoFit perf_fit, power_fit;
    const auto perf = leo.estimateMetric(w.space, bases->perf,
                                         obs.indices, obs.performance,
                                         nullptr, &perf_fit);
    const auto power = leo.estimateMetric(
        w.space, bases->power, obs.indices, obs.power, nullptr, &power_fit);
    const auto sameBits = [](const Vector &a, const Vector &b,
                             const char *what) {
        ASSERT_EQ(a.size(), b.size()) << what;
        for (std::size_t c = 0; c < a.size(); ++c)
            ASSERT_EQ(std::bit_cast<std::uint64_t>(a[c]),
                      std::bit_cast<std::uint64_t>(b[c]))
                << what << " config " << c;
    };
    sameBits(ctl.performanceEstimate(), perf.values, "perf estimate");
    sameBits(ctl.powerEstimate(), power.values, "power estimate");
    for (const auto &[live, fresh] :
         {std::pair{ctl.warmPerfFit(), &perf_fit},
          std::pair{ctl.warmPowerFit(), &power_fit}}) {
        ASSERT_NE(live, nullptr);
        EXPECT_EQ(live->iterations, fresh->iterations);
        EXPECT_EQ(live->kept.units, fresh->kept.units);
        for (std::size_t c = 0; c < w.space.size(); ++c)
            ASSERT_EQ(
                std::bit_cast<std::uint64_t>(live->predictiveVarianceAt(c)),
                std::bit_cast<std::uint64_t>(fresh->predictiveVarianceAt(c)))
                << "config " << c;
    }
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

// ------------------------------------------------- starvation escape

namespace
{

/** Predicts every configuration at `scale` times the mean of the
 *  observations, for both metrics: a flat map that is as optimistic
 *  (scale > 1) as the test needs. */
class ScaledMeanEstimator : public estimators::Estimator
{
  public:
    explicit ScaledMeanEstimator(double scale) : scale_(scale) {}

    std::string name() const override { return "scaled-mean"; }

    estimators::MetricEstimate estimateMetric(
        const platform::ConfigSpace &space, const std::vector<Vector> &,
        const std::vector<std::size_t> &,
        const Vector &obs_vals) const override
    {
        double mean = 0.0;
        for (std::size_t i = 0; i < obs_vals.size(); ++i)
            mean += obs_vals[i];
        mean /= static_cast<double>(obs_vals.size());
        estimators::MetricEstimate est;
        est.values = Vector(space.size(), scale_ * mean);
        return est;
    }

  private:
    double scale_;
};

/** Drive `windows` windows whose every measurement reads `rate`
 *  heartbeats/s at 100 W, whatever the configuration. */
void
driveFlat(EnergyController &ctl, stats::Rng &rng, double rate,
          std::size_t windows)
{
    for (std::size_t i = 0; i < windows; ++i) {
        const std::size_t cfg = ctl.nextConfig(rng);
        ctl.recordMeasurement({cfg, rate, 100.0});
    }
}

} // namespace

/**
 * The starvation escape of a change-point policy. Measurements sit
 * uniformly at half the demand while the map claims four times that
 * everywhere: every residual carries the same bias, which warmup
 * centers out, so the detectors stay quiet. A ColdRefit controller
 * must still re-sample after exactly eight starved windows
 * (kStarveWindows in controller.cc) and count one change-point. When
 * the map concedes that no configuration meets the demand, or the
 * policy is Off, the escape never trips.
 */
TEST(Controller, StarvationEscapeResamplesAfterEightWindows)
{
    World w;
    const double target = 10.0;
    const double measured = 0.5 * target;
    ControllerOptions cold = w.options(target, 4);
    cold.changePointPolicy = runtime::ChangePointPolicy::ColdRefit;

    {
        SCOPED_TRACE("optimistic map");
        const ScaledMeanEstimator optimistic(4.0);
        EnergyController ctl(w.space, &optimistic, w.store, cold);
        stats::Rng rng(5);
        driveFlat(ctl, rng, measured, 4);
        ASSERT_EQ(ctl.state(), EnergyController::State::Controlling);
        ASSERT_EQ(ctl.performanceEstimate()[0], 2.0 * target);
        driveFlat(ctl, rng, measured, 7);
        EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
        EXPECT_EQ(ctl.changePointsDetected(), 0u);
        EXPECT_EQ(ctl.reestimations(), 0u);
        driveFlat(ctl, rng, measured, 1);
        EXPECT_EQ(ctl.state(), EnergyController::State::Sampling);
        EXPECT_EQ(ctl.changePointsDetected(), 1u);
        EXPECT_EQ(ctl.reestimations(), 1u);
    }
    {
        SCOPED_TRACE("map concedes the shortfall");
        const ScaledMeanEstimator conceding(1.1);
        EnergyController ctl(w.space, &conceding, w.store, cold);
        stats::Rng rng(5);
        driveFlat(ctl, rng, measured, 4);
        ASSERT_EQ(ctl.state(), EnergyController::State::Controlling);
        ASSERT_LT(ctl.performanceEstimate()[0], target);
        driveFlat(ctl, rng, measured, 40);
        EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
        EXPECT_EQ(ctl.changePointsDetected(), 0u);
        EXPECT_EQ(ctl.reestimations(), 0u);
    }
    {
        SCOPED_TRACE("policy off");
        const ScaledMeanEstimator optimistic(4.0);
        EnergyController ctl(w.space, &optimistic, w.store,
                             w.options(target, 4));
        stats::Rng rng(5);
        driveFlat(ctl, rng, measured, 44);
        EXPECT_EQ(ctl.state(), EnergyController::State::Controlling);
        EXPECT_EQ(ctl.reestimations(), 0u);
    }
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
 * A save into a writer that already holds a prefix (the service
 * snapshot's path) appends exactly the bytes of a standalone save.
 */
TEST(Controller, PrefixedSaveWritesTheStandaloneBytes)
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

    linalg::ByteWriter prefixed;
    prefixed.u64(42);
    ctl.saveState(prefixed);
    EXPECT_EQ(prefixed.bytes().substr(8), alone.bytes());
}

/**
 * A fit shares its prior basis instead of copying it, so a copy
 * outlives the controller and the PriorBases that built it: it keeps
 * the basis alive, answers variance queries with the same bits, and
 * a fit on an equal-content basis gives the bits the live fit gave on
 * the original one.
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
    estimators::LeoFit live_refit;
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
        live_refit = leo.fitMetric(bases->perf, idx, vals);
    }
    // The controller and its bases are gone; the copy and the live
    // refit hold the last references to the perf basis.
    ASSERT_FALSE(weak.expired());
    EXPECT_EQ(copy.prior.use_count(), 2);
    EXPECT_EQ(live_refit.prior, copy.prior);
    for (std::size_t c = 0; c < w.space.size(); ++c)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(copy.predictiveVarianceAt(c)),
                  std::bit_cast<std::uint64_t>(variance[c]))
            << "config " << c;

    const auto rebuilt = std::make_shared<const estimators::PriorBasis>(
        estimators::priorVectors(prior, estimators::Metric::Performance));
    ASSERT_NE(rebuilt, copy.prior);
    const auto sameBits = [](const linalg::Matrix &a,
                             const linalg::Matrix &b) {
        return a.rows() == b.rows() && a.cols() == b.cols() &&
               std::memcmp(a.data(), b.data(),
                           a.rows() * a.cols() * sizeof(double)) == 0;
    };
    ASSERT_TRUE(sameBits(rebuilt->rows(), copy.prior->rows()));
    ASSERT_TRUE(sameBits(rebuilt->coords(), copy.prior->coords()));
    const estimators::LeoFit refit = leo.fitMetric(rebuilt, idx, vals);
    EXPECT_EQ(refit.iterations, live_refit.iterations);
    for (std::size_t c = 0; c < w.space.size(); ++c)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(refit.prediction[c]),
                  std::bit_cast<std::uint64_t>(live_refit.prediction[c]))
            << "config " << c;
    ASSERT_EQ(refit.rank(), live_refit.rank());
    for (std::size_t a = 0; a < refit.rank(); ++a)
        for (std::size_t b = 0; b < refit.rank(); ++b) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(refit.coeff(a, b)),
                      std::bit_cast<std::uint64_t>(live_refit.coeff(a, b)));
            ASSERT_EQ(
                std::bit_cast<std::uint64_t>(refit.varCore(a, b)),
                std::bit_cast<std::uint64_t>(live_refit.varCore(a, b)));
        }

    copy = estimators::LeoFit{};
    live_refit = estimators::LeoFit{};
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
 * A restored controller refits its saved observations, so a blob with
 * one bit flipped in a saved observation value, or in a saved
 * estimate, no longer matches the fit behind it: either restore fails
 * closed into fresh Sampling state.
 */
TEST(Controller, RestoreRejectsAlteredObservationOrEstimate)
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

    // Version, space size and state, then the observed indices; the
    // first performance observation follows its vector's u64 count.
    // The estimates follow the observations, the probe plan and the
    // probe cursor.
    linalg::ByteReader walk(blob);
    (void)walk.u32();
    (void)walk.u64();
    (void)walk.u8();
    (void)walk.indexVec();
    const std::size_t observation = walk.position() + 8;
    (void)walk.vec();
    (void)walk.vec();
    (void)walk.indexVec();
    (void)walk.u64();
    const std::size_t estimate = walk.position() + 8;
    ASSERT_TRUE(walk.ok());

    EnergyController twin(w.space, &leo, prior, o);
    for (const auto &[what, bit] :
         {std::pair{"observation mantissa bit 40", 8 * observation + 40},
          std::pair{"estimate lowest bit", 8 * estimate}}) {
        SCOPED_TRACE(what);
        linalg::ByteReader good(blob);
        ASSERT_TRUE(twin.restoreState(good));
        std::string bad = blob;
        bad[bit / 8] = static_cast<char>(bad[bit / 8] ^ (1 << (bit % 8)));
        linalg::ByteReader rdr(bad);
        EXPECT_FALSE(twin.restoreState(rdr));
        EXPECT_EQ(twin.state(), EnergyController::State::Sampling);
        EXPECT_FALSE(twin.hasEstimates());
        EXPECT_EQ(twin.warmPerfFit(), nullptr);
        EXPECT_TRUE(twin.observations().indices.empty());
    }
}

/**
 * A fit belongs to the observations it ran on: from a drift-triggered
 * re-probe (policy Off) until the refit lands, the controller holds
 * no fits.
 */
TEST(Controller, ResamplingDropsTheOldFits)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    EnergyController ctl(w.space, &leo, prior, w.options(30.0, 5));
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
    for (int i = 0; i < 6; ++i)
        step(1.0);
    ASSERT_NE(ctl.warmPerfFit(), nullptr);
    for (int i = 0;
         i < 5 && ctl.state() == EnergyController::State::Controlling;
         ++i)
        step(1.6);
    ASSERT_EQ(ctl.reestimations(), 1u);
    while (ctl.state() == EnergyController::State::Sampling) {
        EXPECT_EQ(ctl.warmPerfFit(), nullptr);
        EXPECT_EQ(ctl.warmPowerFit(), nullptr);
        step(1.6);
    }
    EXPECT_NE(ctl.warmPerfFit(), nullptr);
    EXPECT_NE(ctl.warmPowerFit(), nullptr);
}

/**
 * Restore re-derives the fits from the saved observations, so the
 * restored fits are the saved controller's bit for bit: every model
 * field and every configuration's predictive variance, with a
 * full-rank basis (24 prior shapes and 8 probes span all 32 core-only
 * configurations) and a low-rank one (on 256 configurations), under
 * the policy Off and ColdRefit.
 */
TEST(Controller, RestoreRefitsTheSavedFitsBitwise)
{
    World w;
    estimators::LeoEstimator leo;
    workloads::ApplicationModel app(workloads::profileByName("kmeans"),
                                    w.machine);
    const ConfigSpace wide = ConfigSpace::reducedFactorial(w.machine, 2, 2);
    stats::Rng collect(11);
    const telemetry::ProfileStore wide_store =
        telemetry::ProfileStore::collect(workloads::standardSuite(),
                                         w.machine, wide, w.monitor,
                                         w.meter, collect);
    using Case =
        std::pair<const ConfigSpace *, const telemetry::ProfileStore *>;
    for (const auto &[space, store] :
         {Case{&w.space, &w.store}, Case{&wide, &wide_store}}) {
        const telemetry::ProfileStore prior = store->without("kmeans");
        for (const auto policy : {runtime::ChangePointPolicy::Off,
                                  runtime::ChangePointPolicy::ColdRefit}) {
            SCOPED_TRACE("n = " + std::to_string(space->size()) +
                         (policy == runtime::ChangePointPolicy::Off
                              ? ", policy off"
                              : ", policy coldrefit"));
            ControllerOptions o = w.options(30.0, 8);
            o.changePointPolicy = policy;
            EnergyController ctl(*space, &leo, prior, o);
            stats::Rng rng(31);
            while (ctl.state() == EnergyController::State::Sampling) {
                const std::size_t cfg = ctl.nextConfig(rng);
                const auto &ra = space->assignment(cfg);
                ctl.recordMeasurement(
                    {cfg, w.monitor.measureRate(app, ra, rng),
                     w.meter.read(app, ra, rng)});
            }
            ASSERT_NE(ctl.warmPerfFit(), nullptr);
            EXPECT_EQ(ctl.warmPerfFit()->rank() == space->size(),
                      space->size() == 32);
            linalg::ByteWriter wtr;
            ctl.saveState(wtr);
            const std::string blob = wtr.take();

            EnergyController twin(*space, &leo, prior, o);
            linalg::ByteReader rdr(blob);
            ASSERT_TRUE(twin.restoreState(rdr));
            for (const auto &[saved, restored] :
                 {std::pair{ctl.warmPerfFit(), twin.warmPerfFit()},
                  std::pair{ctl.warmPowerFit(), twin.warmPowerFit()}}) {
                ASSERT_NE(restored, nullptr);
                ASSERT_NO_FATAL_FAILURE(
                    support::expectFitsBitwise(*saved, *restored));
                for (std::size_t c = 0; c < space->size(); ++c)
                    ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                  restored->predictiveVarianceAt(c)),
                              std::bit_cast<std::uint64_t>(
                                  saved->predictiveVarianceAt(c)))
                        << "config " << c;
            }
        }
    }
}

/**
 * A controller blob carrying both fits, cut at any offset, fails
 * closed into fresh Sampling state; the whole blob restores. Run with
 * the policy Off and with ColdRefit, whose blob ends in the two
 * change-point detectors. A six-app prior keeps the blob small enough
 * to cut everywhere.
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
    for (const auto policy : {runtime::ChangePointPolicy::Off,
                              runtime::ChangePointPolicy::ColdRefit}) {
        SCOPED_TRACE(policy == runtime::ChangePointPolicy::Off
                         ? "policy off"
                         : "policy coldrefit");
        ControllerOptions o = w.options(30.0, 5);
        o.changePointPolicy = policy;
        EnergyController ctl(w.space, &leo, prior, o);
        stats::Rng rng(31);
        for (int i = 0; i < 9; ++i) {
            const std::size_t cfg = ctl.nextConfig(rng);
            const auto &ra = w.space.assignment(cfg);
            ctl.recordMeasurement(
                {cfg, w.monitor.measureRate(app, ra, rng),
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
        linalg::ByteWriter again;
        twin.saveState(again);
        EXPECT_EQ(again.bytes(), blob);
    }
}

/**
 * The blob opens with its format version. A blob of an earlier format
 * (v1 also carried two per-window refitter states, v2 the detectors'
 * run-length arrays, v3 and v4 the fits) fails closed, with the
 * change-point policy Off and with ColdRefit, whose blob ends in the
 * detectors: the controller, though it held a restored run, drops to
 * fresh Sampling state with no estimates or fits left over.
 */
TEST(Controller, RestoreRejectsOlderFormatVersion)
{
    World w;
    estimators::LeoEstimator leo;
    auto prior = w.store.without("fluidanimate");
    workloads::ApplicationModel app(
        workloads::profileByName("fluidanimate"), w.machine);
    for (const auto policy : {runtime::ChangePointPolicy::Off,
                              runtime::ChangePointPolicy::ColdRefit}) {
        SCOPED_TRACE(policy == runtime::ChangePointPolicy::Off
                         ? "policy off"
                         : "policy coldrefit");
        ControllerOptions o = w.options(30.0, 5);
        o.changePointPolicy = policy;
        EnergyController ctl(w.space, &leo, prior, o);
        stats::Rng rng(31);
        while (ctl.state() == EnergyController::State::Sampling) {
            const std::size_t cfg = ctl.nextConfig(rng);
            const auto &ra = w.space.assignment(cfg);
            ctl.recordMeasurement(
                {cfg, w.monitor.measureRate(app, ra, rng),
                 w.meter.read(app, ra, rng)});
        }
        linalg::ByteWriter wtr;
        ctl.saveState(wtr);
        const std::string blob = wtr.take();
        // The version is the leading little-endian u32.
        ASSERT_EQ(blob.substr(0, 4), std::string("\x05\0\0\0", 4));

        EnergyController twin(w.space, &leo, prior, o);
        for (const char version : {1, 2, 3, 4}) {
            linalg::ByteReader current(blob);
            ASSERT_TRUE(twin.restoreState(current));
            ASSERT_TRUE(twin.hasEstimates());
            ASSERT_NE(twin.warmPerfFit(), nullptr);

            std::string old_blob = blob;
            old_blob[0] = version;
            linalg::ByteReader old(old_blob);
            EXPECT_FALSE(twin.restoreState(old));
            EXPECT_EQ(twin.state(), EnergyController::State::Sampling);
            EXPECT_FALSE(twin.hasEstimates());
            EXPECT_EQ(twin.warmPerfFit(), nullptr);
            EXPECT_TRUE(twin.observations().indices.empty());
        }
    }
}

/**
 * @file
 * Unit tests for the synthetic workload models.
 */

#include <gtest/gtest.h>

#include "linalg/error.hh"
#include "platform/config_space.hh"
#include "workloads/ground_truth.hh"
#include "workloads/scaling.hh"
#include "workloads/suite.hh"

using namespace leo;
using platform::ConfigSpace;
using platform::Machine;
using workloads::ApplicationModel;
using workloads::ApplicationProfile;

// -------------------------------------------------------------- Scaling

TEST(Scaling, AmdahlLimits)
{
    workloads::AmdahlScaling s(0.9);
    EXPECT_DOUBLE_EQ(s.speedup(1.0), 1.0);
    // Amdahl asymptote 1 / (1 - p) = 10.
    EXPECT_NEAR(s.speedup(1e9), 10.0, 1e-6);
    EXPECT_LT(s.speedup(8.0), 8.0);
    EXPECT_THROW(s.speedup(0.5), FatalError);
    EXPECT_THROW(workloads::AmdahlScaling(1.5), FatalError);
}

TEST(Scaling, AmdahlMonotone)
{
    workloads::AmdahlScaling s(0.95);
    for (double k = 1.0; k < 32.0; k += 1.0)
        EXPECT_LT(s.speedup(k), s.speedup(k + 1.0));
}

TEST(Scaling, PeakedHasPeak)
{
    workloads::PeakedScaling s(0.96, 8.0, 0.93);
    const double at_peak = s.speedup(8.0);
    EXPECT_GT(at_peak, s.speedup(4.0));
    EXPECT_GT(at_peak, s.speedup(16.0));
    EXPECT_GT(at_peak, s.speedup(32.0));
    // Decay is multiplicative per extra thread.
    EXPECT_NEAR(s.speedup(9.0), at_peak * 0.93, 1e-9);
}

TEST(Scaling, SaturatingIsFlatPastKnee)
{
    workloads::SaturatingScaling s(0.94, 16.0);
    EXPECT_DOUBLE_EQ(s.speedup(16.0), s.speedup(32.0));
    EXPECT_LT(s.speedup(8.0), s.speedup(16.0));
}

TEST(Scaling, LinearAndLog)
{
    workloads::LinearScaling lin(0.9);
    EXPECT_DOUBLE_EQ(lin.speedup(1.0), 1.0);
    EXPECT_NEAR(lin.speedup(11.0), 10.0, 1e-12);

    workloads::LogScaling lg(2.0);
    EXPECT_DOUBLE_EQ(lg.speedup(1.0), 1.0);
    EXPECT_GT(lg.speedup(8.0), lg.speedup(4.0));
    // Diminishing returns per added thread.
    EXPECT_LT(lg.speedup(9.0) - lg.speedup(8.0),
              lg.speedup(2.0) - lg.speedup(1.0));
}

// ------------------------------------------------------------ App model

namespace
{

ApplicationProfile
testProfile()
{
    ApplicationProfile p = workloads::profileByName("bodytrack");
    p.textureAmplitude = 0.0; // deterministic checks
    return p;
}

} // namespace

TEST(AppModel, SpeedupAtOneThreadIsBase)
{
    Machine m;
    ApplicationProfile p = testProfile();
    ApplicationModel app(p, m);
    auto ra = m.assignment({1, 1, 2, 14}); // 1 thread, top speed
    EXPECT_NEAR(app.heartbeatRate(ra), p.baseHeartbeatRate,
                p.baseHeartbeatRate * 0.02);
}

TEST(AppModel, FrequencyHelpsComputeBoundApps)
{
    Machine m;
    ApplicationProfile p = testProfile();
    p.freqSensitivity = 0.95;
    ApplicationModel app(p, m);
    const double slow = app.heartbeatRate(m.assignment({8, 1, 2, 0}));
    const double fast = app.heartbeatRate(m.assignment({8, 1, 2, 14}));
    EXPECT_GT(fast, slow * 1.5);
}

TEST(AppModel, FrequencyBarelyHelpsMemoryBoundApps)
{
    Machine m;
    ApplicationProfile p = testProfile();
    p.freqSensitivity = 0.1;
    ApplicationModel app(p, m);
    const double slow = app.heartbeatRate(m.assignment({8, 1, 2, 0}));
    const double fast = app.heartbeatRate(m.assignment({8, 1, 2, 14}));
    EXPECT_LT(fast / slow, 1.15);
}

TEST(AppModel, MemoryControllersHelpBandwidthBoundApps)
{
    Machine m;
    ApplicationProfile p = testProfile();
    p.memIntensity = 0.2;
    ApplicationModel app(p, m);
    const double one_mc =
        app.heartbeatRate(m.assignment({16, 1, 1, 14}));
    const double two_mc =
        app.heartbeatRate(m.assignment({16, 1, 2, 14}));
    EXPECT_GT(two_mc, one_mc * 1.2);
}

TEST(AppModel, PowerIncreasesWithCoresAndSpeed)
{
    Machine m;
    ApplicationModel app(testProfile(), m);
    const double p1 = app.powerWatts(m.assignment({1, 1, 1, 0}));
    const double p8 = app.powerWatts(m.assignment({8, 1, 1, 0}));
    const double p8fast = app.powerWatts(m.assignment({8, 1, 1, 14}));
    EXPECT_GT(p8, p1);
    EXPECT_GT(p8fast, p8);
    // Wall power always exceeds the idle floor.
    EXPECT_GT(p1, app.idlePowerWatts());
}

TEST(AppModel, TurboStepNeverLowersPower)
{
    // The power model rebuilds the core voltage from the frequency,
    // with the turbo bump on top of the top DVFS point, so stepping
    // from the top DVFS setting into turbo never lowers wall power:
    // every suite application, every cores / hyperthreading / memory
    // controller setting. (A plain DVFS step can: the texture ripple
    // is larger than some steps.)
    Machine m;
    const unsigned top = m.spec().dvfsSteps - 1;
    const unsigned turbo = m.spec().dvfsSteps;
    std::size_t steps = 0;
    for (const ApplicationProfile &p : workloads::standardSuite()) {
        ApplicationModel app(p, m);
        for (unsigned cores = 1; cores <= m.spec().totalCores(); ++cores)
            for (unsigned tpc = 1; tpc <= m.spec().threadsPerCore; ++tpc)
                for (unsigned mc = 1; mc <= m.spec().memControllers;
                     ++mc) {
                    const double below = app.powerWatts(
                        m.assignment({cores, tpc, mc, top}));
                    const double boosted = app.powerWatts(
                        m.assignment({cores, tpc, mc, turbo}));
                    EXPECT_GE(boosted, below)
                        << p.name << " " << cores << "c x" << tpc << " "
                        << mc << "m";
                    ++steps;
                }
    }
    EXPECT_EQ(steps, 1600u);
}

TEST(AppModel, TextureIsDeterministic)
{
    Machine m;
    ApplicationProfile p = workloads::profileByName("kmeans");
    ApplicationModel a(p, m), b(p, m);
    auto ra = m.assignment({7, 2, 1, 9});
    EXPECT_DOUBLE_EQ(a.heartbeatRate(ra), b.heartbeatRate(ra));
    EXPECT_DOUBLE_EQ(a.powerWatts(ra), b.powerWatts(ra));
}

TEST(AppModel, RejectsBadProfiles)
{
    Machine m;
    ApplicationProfile p = testProfile();
    p.baseHeartbeatRate = 0.0;
    EXPECT_THROW(ApplicationModel(p, m), FatalError);
    p = testProfile();
    p.htEfficiency = 1.5;
    EXPECT_THROW(ApplicationModel(p, m), FatalError);
    p = testProfile();
    p.ioBoundFraction = 1.0;
    EXPECT_THROW(ApplicationModel(p, m), FatalError);
}

// ----------------------------------------------------------- The suite

TEST(Suite, HasTwentyFiveNamedBenchmarks)
{
    const auto &suite = workloads::standardSuite();
    EXPECT_EQ(suite.size(), 25u);
    // The paper's benchmark names are all present.
    for (const char *name :
         {"blackscholes", "bodytrack", "fluidanimate", "swaptions",
          "x264", "ScalParC", "apr", "semphy", "svmrfe", "kmeans",
          "HOP", "PLSA", "kmeansnf", "cfd", "nn", "lud",
          "particlefilter", "vips", "btree", "streamcluster",
          "backprop", "bfs", "jacobi", "filebound", "swish"}) {
        EXPECT_NO_THROW(workloads::profileByName(name)) << name;
    }
    EXPECT_THROW(workloads::profileByName("nosuchapp"), FatalError);
}

TEST(Suite, KmeansPeaksAtEightCores)
{
    // Section 2: kmeans "scales well to 8 cores, but its performance
    // degrades sharply with more".
    Machine m;
    ApplicationModel app(workloads::profileByName("kmeans"), m);
    auto space = ConfigSpace::coreOnly(m);
    auto gt = workloads::computeGroundTruth(app, space);
    const std::size_t peak = gt.performance.argmax();
    EXPECT_NEAR(static_cast<double>(peak + 1), 8.0, 1.0);
    // Sharp degradation: 32 cores much slower than the peak.
    EXPECT_LT(gt.performance[31], 0.6 * gt.performance[peak]);
}

TEST(Suite, SwishPeaksNearSixteen)
{
    Machine m;
    ApplicationModel app(workloads::profileByName("swish"), m);
    auto space = ConfigSpace::coreOnly(m);
    auto gt = workloads::computeGroundTruth(app, space);
    const std::size_t peak = gt.performance.argmax();
    EXPECT_NEAR(static_cast<double>(peak + 1), 16.0, 2.0);
}

TEST(Suite, X264FlatPastSixteen)
{
    Machine m;
    ApplicationModel app(workloads::profileByName("x264"), m);
    auto space = ConfigSpace::coreOnly(m);
    auto gt = workloads::computeGroundTruth(app, space);
    // Essentially constant after 16: within texture noise.
    const double at16 = gt.performance[15];
    for (std::size_t c = 16; c < 32; ++c)
        EXPECT_NEAR(gt.performance[c], at16, 0.12 * at16);
}

TEST(Suite, GroundTruthPositiveEverywhere)
{
    Machine m;
    auto space = ConfigSpace::reducedFactorial(m, 4, 4);
    for (const auto &p : workloads::standardSuite()) {
        ApplicationModel app(p, m);
        auto gt = workloads::computeGroundTruth(app, space);
        for (std::size_t c = 0; c < space.size(); ++c) {
            EXPECT_GT(gt.performance[c], 0.0) << p.name;
            EXPECT_GT(gt.power[c], m.spec().idleSystemPowerW) << p.name;
        }
        EXPECT_TRUE(gt.performance.allFinite()) << p.name;
        EXPECT_TRUE(gt.power.allFinite()) << p.name;
    }
}

// ------------------------------------------------------- Input variation

#include "estimators/leo.hh"
#include "stats/metrics.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"

TEST(Inputs, LeoAdaptsAcrossInputs)
{
    // The paper's motivation: behaviour varies with input. Profile
    // the suite on reference inputs, then estimate kmeans running a
    // *different* input — LEO's online observations must carry it.
    platform::Machine machine;
    auto space = ConfigSpace::coreOnly(machine);
    stats::Rng rng(3);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, mon, met, rng);

    // A new input: less work per heartbeat, a lighter memory load,
    // more serial work and a shifted peak, with its own texture.
    ApplicationProfile varied = workloads::profileByName("kmeans");
    varied.baseHeartbeatRate *= 1.3;
    varied.memIntensity *= 0.8;
    varied.scaleParam = 1.0 - 1.2 * (1.0 - varied.scaleParam);
    varied.scalePeak += 1.5;
    varied.textureSeed ^= 0x5bd1e995u;
    ApplicationModel app(varied, machine);
    auto gt = workloads::computeGroundTruth(app, space);

    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, space, pol, 10, rng);

    estimators::LeoEstimator leo;
    auto prior = store.without("kmeans");
    estimators::EstimationInputs inputs{space, prior, obs};
    auto est = leo.estimate(inputs);
    EXPECT_GT(stats::accuracy(est.performance.values,
                              gt.performance),
              0.8);
}

// ------------------------------------------------ Shared field grammar

#include <limits>

#include "workloads/fields.hh"

namespace fields = workloads::fields;

TEST(Fields, LinesAndCommas)
{
    EXPECT_EQ(fields::stripLine("  a,b # note\r"), "a,b");
    EXPECT_EQ(fields::stripLine("# only a comment"), "");
    EXPECT_EQ(fields::stripLine("\t \r"), "");
    EXPECT_EQ(fields::splitCommas("a, 1 ,2"),
              (std::vector<std::string>{"a", "1", "2"}));
    // A trailing comma makes an empty last field, never a dropped one.
    EXPECT_EQ(fields::splitCommas("a,1,"),
              (std::vector<std::string>{"a", "1", ""}));
    EXPECT_EQ(fields::splitCommas(""), (std::vector<std::string>{""}));
}

TEST(Fields, ParsersOwnTheRangeChecks)
{
    EXPECT_EQ(fields::parseFinite("-2.5", "x"), -2.5);
    EXPECT_EQ(fields::parseFinite("1e-3", "x"), 1e-3);
    EXPECT_EQ(fields::parseCount("0", "n"), 0u);
    EXPECT_EQ(fields::parseCount("9007199254740993", "n"),
              9007199254740993ull);
    EXPECT_EQ(fields::parseCount("18446744073709551615", "n"),
              std::numeric_limits<std::uint64_t>::max());

    for (const char *bad : {"", "nan", "inf", "-inf", "1e400", "1,0",
                            "0x10", "abc", "1.5x", " 1"})
        EXPECT_THROW(fields::parseFinite(bad, "x"), FatalError)
            << "'" << bad << "'";
    for (const char *bad :
         {"", "-1", "+1", "nan", "2.7", "2.0", "1e30", "1e3", " 1",
          "18446744073709551616"})
        EXPECT_THROW(fields::parseCount(bad, "n"), FatalError)
            << "'" << bad << "'";
}

TEST(Fields, FormatNumberIsShortestRoundTrip)
{
    EXPECT_EQ(fields::formatNumber(0.1), "0.1");
    EXPECT_EQ(fields::formatNumber(2.0), "2");
    for (const double x :
         {1.0 / 3.0, 0.1 + 0.2, -1e300, 6.02214076e23, 1e-300,
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::min()})
        EXPECT_EQ(fields::parseFinite(fields::formatNumber(x), "x"), x)
            << fields::formatNumber(x);
}

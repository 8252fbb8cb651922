/**
 * @file
 * Unit tests for the telemetry layer.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "estimators/sanitize.hh"
#include "linalg/error.hh"
#include "platform/config_space.hh"
#include "telemetry/meters.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "support/dense.hh"
#include "workloads/suite.hh"

using namespace leo;
using platform::ConfigSpace;
using platform::Machine;
using workloads::ApplicationModel;

namespace
{

ApplicationModel
kmeansModel(const Machine &m)
{
    return ApplicationModel(workloads::profileByName("kmeans"), m);
}

} // namespace

// --------------------------------------------------------------- Meters

TEST(Meters, WattsUpUnbiasedAndQuantized)
{
    Machine m;
    auto app = kmeansModel(m);
    auto ra = m.assignment({8, 1, 2, 10});
    const double truth = app.powerWatts(ra);

    telemetry::WattsUpMeter meter(0.01, 0.1);
    stats::Rng rng(3);
    linalg::Vector readings;
    for (int i = 0; i < 3000; ++i) {
        const double r = meter.read(app, ra, rng);
        readings.push_back(r);
        // 0.1 W display quantization.
        const double q = r * 10.0;
        EXPECT_NEAR(q, std::round(q), 1e-9);
    }
    EXPECT_NEAR(readings.mean(), truth, truth * 0.002);
    EXPECT_GT(support::sampleStddev(readings), 0.0);
}

TEST(Meters, NoiselessWattsUpIsExact)
{
    Machine m;
    auto app = kmeansModel(m);
    auto ra = m.assignment({4, 2, 1, 5});
    telemetry::WattsUpMeter meter(0.0, 0.0);
    stats::Rng rng(1);
    EXPECT_DOUBLE_EQ(meter.read(app, ra, rng), app.powerWatts(ra));
}

TEST(Meters, HeartbeatMonitorUnbiased)
{
    Machine m;
    auto app = kmeansModel(m);
    auto ra = m.assignment({8, 1, 2, 10});
    const double truth = app.heartbeatRate(ra);
    telemetry::HeartbeatMonitor mon(0.02);
    stats::Rng rng(5);
    linalg::Vector rates;
    for (int i = 0; i < 3000; ++i)
        rates.push_back(mon.measureRate(app, ra, rng));
    EXPECT_NEAR(rates.mean(), truth, truth * 0.005);
    EXPECT_NEAR(support::sampleStddev(rates), truth * 0.02,
                truth * 0.005);
}

TEST(Meters, RejectNegativeNoise)
{
    EXPECT_THROW(telemetry::WattsUpMeter(-0.1), FatalError);
    EXPECT_THROW(telemetry::HeartbeatMonitor(-0.1), FatalError);
}

// -------------------------------------------------------------- Sampler

TEST(Sampler, RandomDistinctWithinBudget)
{
    telemetry::RandomSampler s;
    stats::Rng rng(7);
    auto idx = s.select(1024, 20, rng);
    EXPECT_EQ(idx.size(), 20u);
    std::sort(idx.begin(), idx.end());
    EXPECT_TRUE(std::adjacent_find(idx.begin(), idx.end()) ==
                idx.end());
    // Budget larger than the space clamps.
    auto all = s.select(10, 50, rng);
    EXPECT_EQ(all.size(), 10u);
}

TEST(Sampler, UniformGridMatchesSectionTwo)
{
    // n = 32, budget 6 -> cores 5, 10, ..., 30 (indices 4, 9, ... 29).
    telemetry::UniformGridSampler s;
    stats::Rng rng(1);
    auto idx = s.select(32, 6, rng);
    ASSERT_EQ(idx.size(), 6u);
    for (std::size_t j = 0; j < 6; ++j)
        EXPECT_EQ(idx[j], 5 * (j + 1) - 1);
}

TEST(Sampler, ProfilerMeasuresRequestedConfigs)
{
    Machine m;
    auto space = ConfigSpace::coreOnly(m);
    auto app = kmeansModel(m);
    telemetry::HeartbeatMonitor mon(0.0);
    telemetry::WattsUpMeter met(0.0, 0.0);
    telemetry::Profiler prof(mon, met);
    stats::Rng rng(9);

    std::vector<std::size_t> want{0, 7, 31};
    auto obs = prof.measureAt(app, space, want, rng);
    ASSERT_EQ(obs.size(), 3u);
    EXPECT_EQ(obs.indices, want);
    for (std::size_t j = 0; j < 3; ++j) {
        const auto &ra = space.assignment(want[j]);
        EXPECT_DOUBLE_EQ(obs.performance[j], app.heartbeatRate(ra));
        EXPECT_DOUBLE_EQ(obs.power[j], app.powerWatts(ra));
    }
    EXPECT_THROW(prof.measureAt(app, space, {99}, rng), FatalError);
}

TEST(Sampler, ObservationsPush)
{
    telemetry::Observations obs;
    EXPECT_TRUE(obs.empty());
    obs.push({3, 10.0, 100.0});
    obs.push({5, 20.0, 150.0});
    EXPECT_EQ(obs.size(), 2u);
    EXPECT_EQ(obs.indices[1], 5u);
    EXPECT_DOUBLE_EQ(obs.performance[0], 10.0);
    EXPECT_DOUBLE_EQ(obs.power[1], 150.0);
}

// -------------------------------------------------------- Profile store

TEST(ProfileStore, CollectCoversSuiteAndSpace)
{
    Machine m;
    auto space = ConfigSpace::coreOnly(m);
    stats::Rng rng(11);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), m, space, mon, met, rng);
    EXPECT_EQ(store.numApplications(), 25u);
    EXPECT_EQ(store.spaceSize(), 32u);
    EXPECT_TRUE(store.contains("kmeans"));
    EXPECT_FALSE(store.contains("quake"));
}

TEST(ProfileStore, LeaveOneOut)
{
    Machine m;
    auto space = ConfigSpace::coreOnly(m);
    stats::Rng rng(11);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), m, space, mon, met, rng);

    auto loo = store.without("kmeans");
    EXPECT_EQ(loo.numApplications(), 24u);
    EXPECT_FALSE(loo.contains("kmeans"));
    EXPECT_TRUE(loo.contains("swish"));
    // Original store untouched.
    EXPECT_TRUE(store.contains("kmeans"));
    // Removing an absent name is a no-op.
    EXPECT_EQ(store.without("nosuchapp").numApplications(), 25u);
}

TEST(ProfileStore, RejectsRaggedRecords)
{
    std::vector<telemetry::ApplicationRecord> recs(2);
    recs[0].name = "a";
    recs[0].performance = linalg::Vector(4, 1.0);
    recs[0].power = linalg::Vector(4, 1.0);
    recs[1].name = "b";
    recs[1].performance = linalg::Vector(3, 1.0);
    recs[1].power = linalg::Vector(3, 1.0);
    EXPECT_THROW(telemetry::ProfileStore{std::move(recs)}, FatalError);
}

// ------------------------------------------------------ content hash

namespace
{

telemetry::Observations
obsOf(std::initializer_list<telemetry::Sample> samples)
{
    telemetry::Observations o;
    for (const auto &s : samples)
        o.push(s);
    return o;
}

} // namespace

TEST(ContentHash, InsensitiveToSampleOrder)
{
    const auto a = obsOf({{0, 2.0, 10.0}, {3, 4.0, 20.0},
                          {7, 8.0, 30.0}});
    const auto b = obsOf({{7, 8.0, 30.0}, {0, 2.0, 10.0},
                          {3, 4.0, 20.0}});
    EXPECT_EQ(a.contentHash(16), b.contentHash(16));
}

TEST(ContentHash, DuplicateArrivalOrderIrrelevantAndMergeAgrees)
{
    // A retried probe delivers the same index twice; the two arrival
    // orders must hash identically, and sanitization must merge them
    // to the same surviving set (the property that makes the hash a
    // safe fit-cache key).
    const auto a = obsOf({{5, 2.0, 10.0}, {5, 4.0, 30.0},
                          {1, 1.0, 5.0}});
    const auto b = obsOf({{5, 4.0, 30.0}, {1, 1.0, 5.0},
                          {5, 2.0, 10.0}});
    EXPECT_EQ(a.contentHash(16), b.contentHash(16));

    const auto sa =
        estimators::sanitizeObservations(a.indices, a.performance, 16);
    const auto sb =
        estimators::sanitizeObservations(b.indices, b.performance, 16);
    ASSERT_TRUE(sa.modified);
    ASSERT_TRUE(sb.modified);
    ASSERT_EQ(sa.values.size(), sb.values.size());
    // First-occurrence order differs between the two arrivals, so
    // compare the merged sets as (index, value) multisets.
    std::vector<std::pair<std::size_t, double>> ma, mb;
    for (std::size_t i = 0; i < sa.indices.size(); ++i)
        ma.push_back({sa.indices[i], sa.values[i]});
    for (std::size_t i = 0; i < sb.indices.size(); ++i)
        mb.push_back({sb.indices[i], sb.values[i]});
    std::sort(ma.begin(), ma.end());
    std::sort(mb.begin(), mb.end());
    EXPECT_EQ(ma, mb);
}

TEST(ContentHash, RejectedReadingsCollide)
{
    // Sanitization rejects non-finite and non-positive values, so
    // observation sets that differ only in the *kind* of rejected
    // reading produce the same fit — and must produce the same hash.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const auto a = obsOf({{2, nan, 10.0}, {4, 3.0, 20.0}});
    const auto b = obsOf({{2, -7.0, 10.0}, {4, 3.0, 20.0}});
    const auto c = obsOf({{2, 0.0, 10.0}, {4, 3.0, 20.0}});
    EXPECT_EQ(a.contentHash(16), b.contentHash(16));
    EXPECT_EQ(a.contentHash(16), c.contentHash(16));

    // A sample rejected on both metrics contributes nothing, as does
    // an out-of-range index.
    const auto d = obsOf({{4, 3.0, 20.0}});
    const auto e = obsOf({{4, 3.0, 20.0}, {2, nan, -1.0}});
    const auto f = obsOf({{4, 3.0, 20.0}, {99, 5.0, 25.0}});
    EXPECT_EQ(d.contentHash(16), e.contentHash(16));
    EXPECT_EQ(d.contentHash(16), f.contentHash(16));
    // But a rejected metric next to a surviving one still counts.
    EXPECT_NE(a.contentHash(16), d.contentHash(16));
}

TEST(ContentHash, SensitiveToSurvivingBits)
{
    const auto a = obsOf({{3, 2.0, 10.0}});
    auto b = obsOf({{3, 2.0, 10.0}});
    b.performance[0] = std::nextafter(2.0, 3.0);
    EXPECT_NE(a.contentHash(16), b.contentHash(16));

    // Different index, same values: different hash.
    const auto c = obsOf({{4, 2.0, 10.0}});
    EXPECT_NE(a.contentHash(16), c.contentHash(16));

    // Empty set hashes consistently and differs from non-empty.
    const telemetry::Observations empty;
    EXPECT_EQ(empty.contentHash(16),
              telemetry::Observations{}.contentHash(16));
    EXPECT_NE(empty.contentHash(16), a.contentHash(16));
}

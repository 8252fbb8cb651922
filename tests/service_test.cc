/**
 * @file
 * Tests for leo::service — the multi-tenant serving core.
 *
 * The load-bearing properties:
 *  - per-tenant schedules are invariant under shard count and pool
 *    worker count (sharded dispatch erases producer interleaving);
 *  - a tenant served through the deferred batched fit path follows
 *    bitwise the same schedule as a standalone inline-fitting
 *    controller over the same samples;
 *  - the cold-fit cache changes cost, never behavior;
 *  - a snapshot restored into a fresh service resumes every tenant's
 *    schedule bit for bit across the fault-scenario sweep.
 */

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "faults/faults.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "service/service.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;
using platform::ConfigSpace;
using platform::Machine;
using service::Service;
using service::ServiceOptions;
using service::TenantConfig;

namespace
{

/** Shared measurement world; one per fixture. */
struct World
{
    Machine machine;
    ConfigSpace space = ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor{0.01};
    telemetry::WattsUpMeter meter{0.005, 0.1};
    stats::Rng store_rng{7};
    telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        store_rng);
    std::shared_ptr<const telemetry::ProfileStore> prior =
        std::make_shared<const telemetry::ProfileStore>(
            store.without("x264"));
    workloads::ApplicationModel app{workloads::profileByName("x264"),
                                    machine};
    workloads::GroundTruth gt =
        workloads::computeGroundTruth(app, space);

    ServiceOptions
    serviceOptions(std::size_t shards) const
    {
        ServiceOptions o;
        o.shards = shards;
        o.controller.targetRate = 0.5 * gt.performance.max();
        o.controller.sampleBudget = 6;
        o.controller.idlePower = machine.spec().idleSystemPowerW;
        return o;
    }

    TenantConfig
    tenant(std::size_t i) const
    {
        TenantConfig c;
        c.appId = "x264";
        c.targetRate = (0.4 + 0.1 * static_cast<double>(i % 3)) *
                       gt.performance.max();
        c.seed = 101 + i;
        return c;
    }
};

/**
 * Drive every tenant through `windows` windows: one nextConfig +
 * submit per tenant, one tick per round. Appends each tenant's
 * accepted configurations to `schedules`.
 */
void
driveFleet(Service &svc, const World &w,
           const telemetry::HeartbeatMonitor &monitor,
           const telemetry::PowerMeter &meter,
           const std::vector<std::uint64_t> &ids,
           std::vector<stats::Rng> &meas_rngs, std::size_t windows,
           std::vector<std::vector<std::size_t>> &schedules)
{
    ASSERT_EQ(ids.size(), meas_rngs.size());
    schedules.resize(ids.size());
    for (std::size_t round = 0; round < windows; ++round) {
        for (std::size_t t = 0; t < ids.size(); ++t) {
            const std::size_t cfg = svc.nextConfig(ids[t]);
            ASSERT_LT(cfg, w.space.size());
            schedules[t].push_back(cfg);
            const auto &ra = w.space.assignment(cfg);
            ASSERT_TRUE(svc.submit(
                ids[t],
                {cfg, monitor.measureRate(w.app, ra, meas_rngs[t]),
                 meter.read(w.app, ra, meas_rngs[t])}));
        }
        svc.tick();
    }
}

std::vector<stats::Rng>
measurementRngs(std::size_t n)
{
    std::vector<stats::Rng> rngs;
    for (std::size_t t = 0; t < n; ++t)
        rngs.emplace_back(900 + t);
    return rngs;
}

} // namespace

// -------------------------------------------------- admission basics

TEST(Service, AdmitRejectClose)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    ServiceOptions opt = w.serviceOptions(4);
    opt.maxTenants = 2;
    Service svc(w.space, leo, w.prior, pool, opt);

    const auto a = svc.admit(w.tenant(0));
    const auto b = svc.admit(w.tenant(1));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_NE(*a, *b);
    EXPECT_EQ(svc.activeTenants(), 2u);

    // At capacity, and bad demands are rejected outright.
    EXPECT_FALSE(svc.admit(w.tenant(2)).has_value());
    TenantConfig bad = w.tenant(3);
    bad.targetRate = 0.0;
    EXPECT_FALSE(svc.admit(bad).has_value());

    EXPECT_TRUE(svc.close(*a));
    EXPECT_FALSE(svc.close(*a));
    EXPECT_EQ(svc.activeTenants(), 1u);

    const auto snap = svc.metrics().snapshot();
    EXPECT_EQ(snap.counterOr(obs::names::kServiceTenantsAdmitted),
              2u);
    EXPECT_EQ(snap.counterOr(obs::names::kServiceTenantsRejected),
              2u);
    EXPECT_EQ(snap.counterOr(obs::names::kServiceTenantsClosed), 1u);
}

TEST(Service, SubmitToUnknownTenantIsCountedDrop)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(2));
    EXPECT_FALSE(svc.submit(1234, {0, 1.0, 1.0}));
    EXPECT_EQ(svc.metrics().snapshot().counterOr(
                  obs::names::kServiceSamplesDropped),
              1u);
}

// --------------------------------------- shard/thread-count identity

/**
 * The same fleet replayed at 1, 4 and 16 shards — and different pool
 * worker counts — produces bitwise-identical per-tenant schedules:
 * shard layout is a throughput knob, never a behavior knob.
 */
TEST(Service, ScheduleInvariantUnderShardsAndThreads)
{
    World w;
    estimators::LeoEstimator leo;
    constexpr std::size_t kTenants = 5;
    constexpr std::size_t kWindows = 24;

    auto run = [&](std::size_t shards, std::size_t workers,
                   std::vector<std::vector<std::size_t>> &schedules) {
        parallel::ThreadPool pool(workers);
        Service svc(w.space, leo, w.prior, pool,
                    w.serviceOptions(shards));
        std::vector<std::uint64_t> ids;
        for (std::size_t t = 0; t < kTenants; ++t) {
            const auto id = svc.admit(w.tenant(t));
            ASSERT_TRUE(id.has_value());
            ids.push_back(*id);
        }
        auto rngs = measurementRngs(kTenants);
        ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor,
                                           w.meter, ids, rngs,
                                           kWindows, schedules));
    };

    std::vector<std::vector<std::size_t>> one, four, sixteen;
    run(1, 0, one);
    run(4, 2, four);
    run(16, 3, sixteen);

    ASSERT_EQ(one.size(), four.size());
    ASSERT_EQ(one.size(), sixteen.size());
    for (std::size_t t = 0; t < one.size(); ++t) {
        EXPECT_EQ(one[t], four[t]) << "tenant " << t;
        EXPECT_EQ(one[t], sixteen[t]) << "tenant " << t;
    }
}

// ------------------------------------ deferred fit == inline fit

/**
 * A tenant served through the service (deferred fits, batched EM,
 * shard queues) follows bitwise the same schedule as a standalone
 * controller fitting inline from the same samples — the deferred
 * path is a scheduling transformation, not a model change.
 */
TEST(Service, MatchesStandaloneInlineController)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(2);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(4));

    constexpr std::size_t kTenants = 3;
    constexpr std::size_t kWindows = 30;
    std::vector<std::uint64_t> ids;
    std::vector<std::unique_ptr<runtime::EnergyController>> solo;
    std::vector<stats::Rng> solo_rngs;
    for (std::size_t t = 0; t < kTenants; ++t) {
        const TenantConfig cfg = w.tenant(t);
        const auto id = svc.admit(cfg);
        ASSERT_TRUE(id.has_value());
        ids.push_back(*id);
        runtime::ControllerOptions copts =
            w.serviceOptions(4).controller;
        copts.targetRate = cfg.targetRate;
        solo.push_back(std::make_unique<runtime::EnergyController>(
            w.space, &leo, *w.prior, copts));
        solo_rngs.emplace_back(cfg.seed);
    }

    auto svc_meas = measurementRngs(kTenants);
    auto solo_meas = measurementRngs(kTenants);
    for (std::size_t round = 0; round < kWindows; ++round) {
        for (std::size_t t = 0; t < kTenants; ++t) {
            const std::size_t via_service = svc.nextConfig(ids[t]);
            const std::size_t via_solo =
                solo[t]->nextConfig(solo_rngs[t]);
            ASSERT_EQ(via_service, via_solo)
                << "tenant " << t << " window " << round;
            const auto &ra = w.space.assignment(via_service);
            const telemetry::Sample s{
                via_service,
                w.monitor.measureRate(w.app, ra, svc_meas[t]),
                w.meter.read(w.app, ra, svc_meas[t])};
            // Keep the solo measurement stream in lockstep.
            (void)w.monitor.measureRate(w.app, ra, solo_meas[t]);
            (void)w.meter.read(w.app, ra, solo_meas[t]);
            ASSERT_TRUE(svc.submit(ids[t], s));
            solo[t]->recordMeasurement(s);
        }
        svc.tick();
    }
    for (std::size_t t = 0; t < kTenants; ++t)
        EXPECT_EQ(solo[t]->state(),
                  runtime::EnergyController::State::Controlling);
}

// -------------------------------------------------- cold-fit cache

/**
 * Two tenants of the same application with identical observation
 * sets share one cold fit: the second is served from the cache
 * (counted) and follows exactly the schedule of the first.
 */
TEST(Service, ColdFitCacheServesIdenticalTenant)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(4));

    constexpr std::size_t kWindows = 12;
    const auto a = svc.admit(w.tenant(0));
    ASSERT_TRUE(a.has_value());
    std::vector<std::vector<std::size_t>> sched_a;
    {
        std::vector<stats::Rng> rngs;
        rngs.emplace_back(900);
        ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor,
                                           w.meter, {*a}, rngs,
                                           kWindows, sched_a));
    }

    // Same app, same seed, same measurement stream: the cold fit is
    // a cache hit, and the schedule replays bit for bit.
    const auto b = svc.admit(w.tenant(0));
    ASSERT_TRUE(b.has_value());
    std::vector<std::vector<std::size_t>> sched_b;
    {
        std::vector<stats::Rng> rngs;
        rngs.emplace_back(900);
        ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor,
                                           w.meter, {*b}, rngs,
                                           kWindows, sched_b));
    }

    EXPECT_EQ(sched_a[0], sched_b[0]);
    const auto snap = svc.metrics().snapshot();
    EXPECT_EQ(snap.counterOr(obs::names::kServiceCacheHits), 1u);
    EXPECT_EQ(snap.counterOr(obs::names::kServiceCacheMisses), 1u);

    // And the cache is cost-only: a cacheless service produces the
    // same schedules.
    ServiceOptions nocache = w.serviceOptions(4);
    nocache.fitCacheCapacity = 0;
    Service plain(w.space, leo, w.prior, pool, nocache);
    const auto c = plain.admit(w.tenant(0));
    ASSERT_TRUE(c.has_value());
    std::vector<std::vector<std::size_t>> sched_c;
    {
        std::vector<stats::Rng> rngs;
        rngs.emplace_back(900);
        ASSERT_NO_FATAL_FAILURE(driveFleet(plain, w, w.monitor,
                                           w.meter, {*c}, rngs,
                                           kWindows, sched_c));
    }
    EXPECT_EQ(sched_a[0], sched_c[0]);
    EXPECT_EQ(plain.metrics().snapshot().counterOr(
                  obs::names::kServiceCacheHits),
              0u);
}

/**
 * The cache key (Observations::contentHash) ignores sample order, so
 * the fit must too: a tenant that probed the same configurations in
 * another order gets a cache hit that is bitwise its own fit. A
 * cacheless service, where that tenant fits its own samples, ends in
 * a byte-identical snapshot.
 */
TEST(Service, CacheHitMatchesOwnFitWhateverTheSampleOrder)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    ServiceOptions opt = w.serviceOptions(2);
    // Probing every configuration makes two plans permutations
    // of each other; noise-free readings make their samples equal.
    opt.controller.sampleBudget = w.space.size();
    ServiceOptions nocache = opt;
    nocache.fitCacheCapacity = 0;
    Service cached(w.space, leo, w.prior, pool, opt);
    Service plain(w.space, leo, w.prior, pool, nocache);

    TenantConfig cfg_b = w.tenant(0);
    cfg_b.seed = 777;
    std::vector<std::vector<std::size_t>> probes;
    for (const TenantConfig &cfg : {w.tenant(0), cfg_b}) {
        const auto id = cached.admit(cfg);
        ASSERT_TRUE(id.has_value());
        ASSERT_EQ(plain.admit(cfg), id);
        probes.emplace_back();
        // The plan, one tick for the fit, one paced window.
        for (std::size_t round = 0; round < w.space.size() + 2;
             ++round) {
            const std::size_t c = cached.nextConfig(*id);
            ASSERT_EQ(plain.nextConfig(*id), c) << round;
            if (round < w.space.size())
                probes.back().push_back(c);
            const telemetry::Sample s{c, w.gt.performance[c],
                                      w.gt.power[c]};
            ASSERT_TRUE(cached.submit(*id, s));
            ASSERT_TRUE(plain.submit(*id, s));
            cached.tick();
            plain.tick();
        }
    }
    ASSERT_NE(probes[0], probes[1]);
    EXPECT_EQ(cached.metrics().snapshot().counterOr(
                  obs::names::kServiceCacheHits),
              1u);
    EXPECT_EQ(plain.metrics().snapshot().counterOr(
                  obs::names::kServiceCacheHits),
              0u);

    linalg::ByteWriter wc, wp;
    cached.saveSnapshot(wc);
    plain.saveSnapshot(wp);
    EXPECT_TRUE(wc.take() == wp.take());
}

namespace
{

/** One session's estimates as a snapshot carries them. */
struct SessionEstimates
{
    linalg::Vector perf;
    linalg::Vector power;
};

/**
 * Read every session's estimates out of a snapshot by restoring its
 * controller state into a standalone controller on `w`'s prior (the
 * blob of each session ends where the next one starts).
 */
std::vector<SessionEstimates>
snapshotEstimates(const std::string &blob, const World &w,
                  const estimators::LeoEstimator &leo)
{
    std::vector<SessionEstimates> out;
    linalg::ByteReader r(blob);
    (void)r.u32();
    for (int i = 0; i < 4; ++i) // space, shards, next id, live version
        (void)r.u64();
    const std::uint64_t versions = r.u64();
    for (std::uint64_t v = 0; v < versions && r.ok(); ++v) {
        (void)r.u64(); // version
        const std::uint64_t apps = r.u64();
        for (std::uint64_t a = 0; a < apps && r.ok(); ++a) {
            (void)r.str();
            (void)r.vec();
            (void)r.vec();
        }
    }
    const std::uint64_t sessions = r.u64();
    for (std::uint64_t i = 0; i < sessions && r.ok(); ++i) {
        (void)r.u64(); // id
        (void)r.str(); // app id
        runtime::ControllerOptions copts = w.serviceOptions(1).controller;
        copts.targetRate = r.f64();
        copts.deferFits = true;
        (void)r.f64(); // deadline
        for (int k = 0; k < 4; ++k) // seed, sequence, windows, version
            (void)r.u64();
        (void)r.str(); // rng engine
        runtime::EnergyController ctl(w.space, &leo, *w.prior, copts);
        EXPECT_TRUE(ctl.restoreState(r)) << "session " << i;
        out.push_back({ctl.performanceEstimate(), ctl.powerEstimate()});
    }
    EXPECT_TRUE(r.ok());
    return out;
}

} // namespace

/**
 * Every fit runs cold, so a refit is as shareable as a first fit. Two
 * tenants of one application, seed and noise-free measurement stream,
 * the later one a window behind, speed up together and re-probe: the
 * later tenant's refit is served from the cache, and its estimates
 * equal the earlier tenant's bit for bit.
 */
TEST(Service, RefitIsServedFromFitCache)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(2));
    const auto a = svc.admit(w.tenant(0));
    const auto b = svc.admit(w.tenant(0));
    ASSERT_TRUE(a.has_value() && b.has_value());

    // Local window k of either tenant runs 1.6x faster from kDriftAt
    // on; tenant b starts one round after tenant a.
    constexpr std::size_t kDriftAt = 16;
    constexpr std::size_t kRounds = 48;
    const auto sample = [&](std::size_t cfg, std::size_t k) {
        const double speed = k >= kDriftAt ? 1.6 : 1.0;
        return telemetry::Sample{cfg, speed * w.gt.performance[cfg],
                                 w.gt.power[cfg]};
    };
    std::vector<service::TickReport> fit_ticks;
    std::vector<std::string> snapshots;
    for (std::size_t round = 0; round < kRounds; ++round) {
        ASSERT_TRUE(svc.submit(*a, sample(svc.nextConfig(*a), round)));
        if (round >= 1) {
            ASSERT_TRUE(
                svc.submit(*b, sample(svc.nextConfig(*b), round - 1)));
        }
        const service::TickReport report = svc.tick();
        ASSERT_LE(report.tenantsFitted, 1u) << "round " << round;
        if (report.tenantsFitted == 0)
            continue;
        fit_ticks.push_back(report);
        linalg::ByteWriter wr;
        svc.saveSnapshot(wr);
        snapshots.push_back(wr.take());
    }

    // a's first fit, b's, a's refit, b's refit: the first of each pair
    // misses, the second hits.
    ASSERT_EQ(fit_ticks.size(), 4u);
    for (std::size_t f = 0; f < fit_ticks.size(); ++f)
        EXPECT_EQ(fit_ticks[f].cacheHits, f % 2) << "fit " << f;
    const auto snap = svc.metrics().snapshot();
    EXPECT_EQ(snap.counterOr(obs::names::kServiceCacheHits), 2u);
    EXPECT_EQ(snap.counterOr(obs::names::kServiceCacheMisses), 2u);

    // After b's refit both tenants hold the refit's estimates, and
    // they differ from the first fit's.
    const auto first = snapshotEstimates(snapshots[1], w, leo);
    const auto refit = snapshotEstimates(snapshots[3], w, leo);
    ASSERT_EQ(first.size(), 2u);
    ASSERT_EQ(refit.size(), 2u);
    const auto sameBits = [](const linalg::Vector &x,
                             const linalg::Vector &y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(),
                           x.size() * sizeof(double)) == 0;
    };
    ASSERT_EQ(refit[0].perf.size(), w.space.size());
    EXPECT_TRUE(sameBits(refit[1].perf, refit[0].perf));
    EXPECT_TRUE(sameBits(refit[1].power, refit[0].power));
    EXPECT_FALSE(sameBits(refit[0].perf, first[0].perf));
}

/**
 * Prior bases are built once per metric per prior version — in the
 * constructor and in refreshPrior() — and pinned by every session:
 * admissions, fits and the tick that installs a refresh build none. A
 * snapshot restore builds one per metric for each prior version the
 * blob carries (here the admission-time one and the refreshed one),
 * and the restored fleet's fits build none.
 */
TEST(Service, BuildsOneBasisPerMetricPerPriorVersion)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    const ServiceOptions opt = w.serviceOptions(2);
    auto built = [] {
        return obs::Registry::global()
            .counter(obs::names::kEmPriorBasisBuilt)
            .value();
    };
    const std::uint64_t before = built();
    Service svc(w.space, leo, w.prior, pool, opt);
    EXPECT_EQ(built() - before, 2u);

    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 3; ++t)
        ids.push_back(*svc.admit(w.tenant(t)));
    auto rngs = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> sched;
    ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor, w.meter, ids,
                                       rngs, 12, sched));
    EXPECT_EQ(built() - before, 2u);

    auto refreshed = std::make_shared<const telemetry::ProfileStore>(
        w.store.without("swish"));
    svc.refreshPrior(refreshed);
    EXPECT_EQ(built() - before, 4u);
    ids.push_back(*svc.admit(w.tenant(3))); // still the old version
    rngs = measurementRngs(ids.size());
    ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor, w.meter, ids,
                                       rngs, 12, sched));
    ids.push_back(*svc.admit(w.tenant(4))); // the refreshed version
    rngs = measurementRngs(ids.size());
    ASSERT_NO_FATAL_FAILURE(driveFleet(svc, w, w.monitor, w.meter, ids,
                                       rngs, 12, sched));
    EXPECT_EQ(built() - before, 4u);

    linalg::ByteWriter writer;
    svc.saveSnapshot(writer);
    const std::string blob = writer.take();
    Service restored(w.space, leo, refreshed, pool, opt);
    EXPECT_EQ(built() - before, 6u);
    linalg::ByteReader reader(blob);
    ASSERT_TRUE(restored.restoreSnapshot(reader));
    EXPECT_EQ(built() - before, 10u);
    rngs = measurementRngs(ids.size());
    ASSERT_NO_FATAL_FAILURE(driveFleet(restored, w, w.monitor, w.meter,
                                       ids, rngs, 12, sched));
    EXPECT_EQ(built() - before, 10u);
}

// ----------------------------------------------- concurrent submit

/**
 * submit() from many threads concurrently: every sample is either
 * applied at the next tick or counted as a drop — none vanish.
 * (This is the test the TSan preset leans on.)
 */
TEST(Service, ConcurrentSubmitAccountsForEverySample)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(2);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(4));

    // More samples per producer than a shard's 1024 queue slots
    // (kQueueCapacity in service.cc): force some drops.
    constexpr std::size_t kProducers = 4;
    constexpr std::size_t kPerProducer = 1500;
    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < kProducers; ++t) {
        const auto id = svc.admit(w.tenant(t));
        ASSERT_TRUE(id.has_value());
        ids.push_back(*id);
    }

    std::vector<std::thread> producers;
    for (std::size_t t = 0; t < kProducers; ++t) {
        producers.emplace_back([&svc, &ids, t] {
            for (std::size_t i = 0; i < kPerProducer; ++i)
                (void)svc.submit(ids[t], {0, 1.0, 1.0});
        });
    }
    for (auto &p : producers)
        p.join();
    svc.tick();

    const auto snap = svc.metrics().snapshot();
    const std::uint64_t enqueued =
        snap.counterOr(obs::names::kServiceSamplesEnqueued);
    const std::uint64_t dropped =
        snap.counterOr(obs::names::kServiceSamplesDropped);
    const std::uint64_t processed =
        snap.counterOr(obs::names::kServiceWindowsProcessed);
    EXPECT_EQ(enqueued + dropped, kProducers * kPerProducer);
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(processed, enqueued);
}

// ------------------------------------------------ snapshot/restore

namespace
{

/** Fault scenarios the snapshot property must hold across (mirrors
 *  property_test's refit sweep). */
std::vector<std::pair<const char *, faults::FaultScenario>>
faultSweep()
{
    std::vector<std::pair<const char *, faults::FaultScenario>> v;
    v.push_back({"none", faults::FaultScenario::none()});
    faults::FaultScenario s;
    s.nanProb = 0.10;
    v.push_back({"nan", s});
    s = faults::FaultScenario{};
    s.outlierProb = 0.10;
    s.outlierScale = 25.0;
    v.push_back({"outlier", s});
    s = faults::FaultScenario{};
    s.nanProb = 0.05;
    s.dropoutProb = 0.05;
    s.staleProb = 0.05;
    v.push_back({"mixed", s});
    return v;
}

} // namespace

/**
 * Snapshot mid-run (with samples still queued), restore into a fresh
 * service, and continue both side by side over one shared sample
 * stream: every tenant's remaining schedule is bitwise identical.
 * Parameter = scenario index * 2 + (0 snapshot while pacing, after
 * the first fits / 1 snapshot one probe short of the first fit, so
 * the restored fleet runs that fit from the restored observations).
 */
class ServiceSnapshotProperty
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(ServiceSnapshotProperty, RestoredFleetResumesBitwise)
{
    const auto sweep = faultSweep();
    const auto &[name, scenario] = sweep[GetParam() / 2];
    const bool before_fit = (GetParam() % 2) == 1;
    SCOPED_TRACE(name);
    SCOPED_TRACE(before_fit ? "before the first fit" : "while pacing");

    World w;
    estimators::LeoEstimator leo;
    const ServiceOptions opt = w.serviceOptions(4);

    parallel::ThreadPool pool(2);
    Service original(w.space, leo, w.prior, pool, opt);

    constexpr std::size_t kTenants = 3;
    // Fewer rounds than the probe budget leaves every tenant sampling.
    const std::size_t rounds_before =
        before_fit ? opt.controller.sampleBudget - 1 : 20;
    constexpr std::size_t kAfter = 14;
    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < kTenants; ++t) {
        const auto id = original.admit(w.tenant(t));
        ASSERT_TRUE(id.has_value());
        ids.push_back(*id);
    }

    const faults::FaultyHeartbeatMonitor fmon(w.monitor, scenario);
    const faults::FaultyPowerMeter fmet(w.meter, scenario);
    auto rngs = measurementRngs(kTenants);
    std::vector<std::vector<std::size_t>> before;
    ASSERT_NO_FATAL_FAILURE(driveFleet(original, w, fmon, fmet, ids,
                                       rngs, rounds_before, before));

    // Leave one un-ticked batch in the shard queues so the snapshot
    // carries in-flight samples, not just controller state.
    for (std::size_t t = 0; t < kTenants; ++t) {
        const std::size_t cfg = original.nextConfig(ids[t]);
        const auto &ra = w.space.assignment(cfg);
        ASSERT_TRUE(original.submit(
            ids[t], {cfg, fmon.measureRate(w.app, ra, rngs[t]),
                     fmet.read(w.app, ra, rngs[t])}));
    }

    linalg::ByteWriter writer;
    original.saveSnapshot(writer);
    const std::string blob = writer.take();

    parallel::ThreadPool pool_b(0); // Different worker count too.
    ServiceOptions opt_b = opt;
    opt_b.shards = 4; // Restore requires the same shard count.
    Service restored(w.space, leo, w.prior, pool_b, opt_b);
    linalg::ByteReader reader(blob);
    ASSERT_TRUE(restored.restoreSnapshot(reader));
    EXPECT_TRUE(reader.atEnd());
    EXPECT_EQ(restored.activeTenants(), kTenants);

    original.tick();
    std::size_t fitted_after_restore = restored.tick().tenantsFitted;

    // Continue both fleets over one shared measurement stream.
    for (std::size_t round = 0; round < kAfter; ++round) {
        for (std::size_t t = 0; t < kTenants; ++t) {
            const std::size_t cfg_o = original.nextConfig(ids[t]);
            const std::size_t cfg_r = restored.nextConfig(ids[t]);
            ASSERT_EQ(cfg_o, cfg_r)
                << "tenant " << t << " window " << round;
            const auto &ra = w.space.assignment(cfg_o);
            const telemetry::Sample s{
                cfg_o, fmon.measureRate(w.app, ra, rngs[t]),
                fmet.read(w.app, ra, rngs[t])};
            ASSERT_TRUE(original.submit(ids[t], s));
            ASSERT_TRUE(restored.submit(ids[t], s));
        }
        original.tick();
        fitted_after_restore += restored.tick().tenantsFitted;
    }

    // The before-fit case is vacuous unless the restored fleet fitted.
    if (before_fit) {
        EXPECT_GT(fitted_after_restore, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, ServiceSnapshotProperty,
                         ::testing::Range<std::size_t>(0, 8));

namespace
{

/** Byte offsets into a service snapshot (format v7). */
struct SnapshotLayout
{
    /** The first prior table entry, [begin, end). */
    std::size_t entryBegin = 0;
    std::size_t entryEnd = 0;
    /** The table's entry count. */
    std::size_t versionCount = 0;
    /** The first record's performance vector (its u64 length). */
    std::size_t firstPerf = 0;
    /** The first session's pinned prior version. */
    std::size_t sessionVersion = 0;
};

/** Walk a snapshot's header, prior table and first session. */
SnapshotLayout
walkSnapshot(const std::string &blob)
{
    SnapshotLayout at;
    linalg::ByteReader r(blob);
    (void)r.u32();
    for (int i = 0; i < 4; ++i) // space, shards, next id, live version
        (void)r.u64();
    at.versionCount = r.position();
    const std::uint64_t versions = r.u64();
    for (std::uint64_t v = 0; v < versions; ++v) {
        if (v == 0)
            at.entryBegin = r.position();
        (void)r.u64(); // version
        const std::uint64_t apps = r.u64();
        for (std::uint64_t a = 0; a < apps; ++a) {
            (void)r.str();
            if (v == 0 && a == 0)
                at.firstPerf = r.position();
            (void)r.vec();
            (void)r.vec();
        }
        if (v == 0)
            at.entryEnd = r.position();
    }
    (void)r.u64(); // sessions
    (void)r.u64(); // id
    (void)r.str(); // app id
    (void)r.f64(); // target rate
    (void)r.f64(); // deadline
    for (int i = 0; i < 3; ++i) // seed, submit sequence, windows
        (void)r.u64();
    at.sessionVersion = r.position();
    EXPECT_TRUE(r.ok());
    return at;
}

/** Overwrite the little-endian u64 at `at`. */
void
putU64(std::string &blob, std::size_t at, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        blob[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** @return The little-endian u64 at `at`. */
std::uint64_t
getU64(const std::string &blob, std::size_t at)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(blob[at + i]))
             << (8 * i);
    return v;
}

} // namespace

TEST(Service, RestoreRejectsCorruptSnapshot)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(2));
    ASSERT_TRUE(svc.admit(w.tenant(0)).has_value());

    linalg::ByteWriter writer;
    svc.saveSnapshot(writer);
    const std::string blob = writer.take();
    const SnapshotLayout at = walkSnapshot(blob);

    const auto expectRejected = [&](const std::string &bad) {
        // Start from a populated service: a failed restore empties it.
        linalg::ByteReader good(blob);
        ASSERT_TRUE(svc.restoreSnapshot(good));
        ASSERT_EQ(svc.activeTenants(), 1u);
        linalg::ByteReader r(bad);
        EXPECT_FALSE(svc.restoreSnapshot(r));
        EXPECT_EQ(svc.activeTenants(), 0u);
    };

    {
        SCOPED_TRACE("truncated");
        expectRejected(blob.substr(0, blob.size() / 2));
    }
    {
        // A flipped version word fails before any session is built.
        SCOPED_TRACE("version word");
        std::string bad = blob;
        bad[0] = static_cast<char>(bad[0] ^ 0x7f);
        expectRejected(bad);
    }
    // So do the previous formats: v4, whose controllers carried the
    // change-point detectors' run-length arrays, v5, whose fits
    // carried mu, and v6, whose controllers carried their fits.
    ASSERT_EQ(blob.substr(0, 4), std::string("\x07\0\0\0", 4));
    for (const char version : {4, 5, 6}) {
        SCOPED_TRACE("previous format version " +
                     std::to_string(static_cast<int>(version)));
        std::string bad = blob;
        bad[0] = version;
        expectRejected(bad);
    }
    {
        SCOPED_TRACE("session pins a version the table lacks");
        std::string bad = blob;
        ASSERT_EQ(getU64(bad, at.sessionVersion), 0u);
        putU64(bad, at.sessionVersion, 1);
        expectRejected(bad);
    }
    {
        SCOPED_TRACE("duplicate version entry");
        std::string bad = blob;
        ASSERT_EQ(getU64(bad, at.versionCount), 1u);
        putU64(bad, at.versionCount, 2);
        bad.insert(at.entryEnd,
                   blob.substr(at.entryBegin, at.entryEnd - at.entryBegin));
        expectRejected(bad);
    }
    {
        SCOPED_TRACE("store vector of the wrong length");
        std::string bad = blob;
        const std::uint64_t n = getU64(bad, at.firstPerf);
        ASSERT_EQ(n, w.space.size());
        putU64(bad, at.firstPerf, n - 1);
        bad.erase(at.firstPerf + 8 * n, 8); // Drop the last value.
        expectRejected(bad);
    }
    {
        SCOPED_TRACE("one trailing byte");
        expectRejected(blob + std::string(1, '\0'));
    }
}

// ------------------------------------------- snapshot hostile bytes

/**
 * Regression: a snapshot taken after a prior refresh, while sessions
 * admitted on the old prior are still open, restores each session
 * onto its own prior version. Driven over one measurement stream for
 * long enough that every restored tenant fits, the restored fleet
 * ends byte-equal to the original (restoring every session onto the
 * live prior instead made the restored fits lose a prior direction).
 */
TEST(ServiceSnapshot, RestoreAcrossPriorRefreshResumesBitwise)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    const ServiceOptions opt = w.serviceOptions(2);
    Service original(w.space, leo, w.prior, pool, opt);
    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 3; ++t)
        ids.push_back(*original.admit(w.tenant(t)));
    auto rngs = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> sched;
    ASSERT_NO_FATAL_FAILURE(driveFleet(original, w, w.monitor, w.meter,
                                       ids, rngs, 3, sched));

    auto refreshed = std::make_shared<const telemetry::ProfileStore>(
        w.store.without("swish"));
    original.refreshPrior(refreshed);
    original.tick();

    linalg::ByteWriter writer;
    original.saveSnapshot(writer);
    const std::string blob = writer.take();
    Service restored(w.space, leo, refreshed, pool, opt);
    linalg::ByteReader reader(blob);
    ASSERT_TRUE(restored.restoreSnapshot(reader));
    EXPECT_EQ(restored.tenantIds(), ids);

    std::size_t fitted = 0;
    for (std::size_t round = 0; round < 20; ++round) {
        for (std::size_t t = 0; t < ids.size(); ++t) {
            const std::size_t cfg = original.nextConfig(ids[t]);
            ASSERT_EQ(restored.nextConfig(ids[t]), cfg)
                << "tenant " << t << " window " << round;
            const auto &ra = w.space.assignment(cfg);
            const telemetry::Sample s{
                cfg, w.monitor.measureRate(w.app, ra, rngs[t]),
                w.meter.read(w.app, ra, rngs[t])};
            ASSERT_TRUE(original.submit(ids[t], s));
            ASSERT_TRUE(restored.submit(ids[t], s));
        }
        original.tick();
        fitted += restored.tick().tenantsFitted;
    }
    EXPECT_GE(fitted, ids.size());

    linalg::ByteWriter a, b;
    original.saveSnapshot(a);
    restored.saveSnapshot(b);
    EXPECT_EQ(a.bytes().size(), b.bytes().size());
    EXPECT_TRUE(a.bytes() == b.bytes());
}

/**
 * Restore empties the fit cache. The service restored into here has
 * already served fits for the same tenants and observations under
 * version 0 of *another* prior; the blob's version 0 is the original
 * prior. Had those cache entries survived, the restored tenants would
 * take cache hits fitted on the wrong prior content.
 */
TEST(ServiceSnapshot, RestoreDropsFitsCachedOnOtherPriorContent)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    const ServiceOptions opt = w.serviceOptions(2);
    Service original(w.space, leo, w.prior, pool, opt);
    auto other = std::make_shared<const telemetry::ProfileStore>(
        w.store.without("swish"));
    Service restored(w.space, leo, other, pool, opt);
    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 3; ++t) {
        ids.push_back(*original.admit(w.tenant(t)));
        ASSERT_EQ(*restored.admit(w.tenant(t)), ids.back());
    }
    // The restored side runs the same probes and measurements to its
    // first fits, filling its cache under (x264, version 0, hash).
    auto pre = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> sched;
    ASSERT_NO_FATAL_FAILURE(
        driveFleet(restored, w, w.monitor, w.meter, ids, pre, 8, sched));

    auto rngs = measurementRngs(ids.size());
    ASSERT_NO_FATAL_FAILURE(driveFleet(original, w, w.monitor, w.meter,
                                       ids, rngs, 3, sched));
    linalg::ByteWriter writer;
    original.saveSnapshot(writer);
    const std::string blob = writer.take();
    linalg::ByteReader reader(blob);
    ASSERT_TRUE(restored.restoreSnapshot(reader));

    std::size_t hits = 0;
    for (std::size_t round = 0; round < 6; ++round) {
        for (std::size_t t = 0; t < ids.size(); ++t) {
            const std::size_t cfg = original.nextConfig(ids[t]);
            ASSERT_EQ(restored.nextConfig(ids[t]), cfg);
            const auto &ra = w.space.assignment(cfg);
            const telemetry::Sample s{
                cfg, w.monitor.measureRate(w.app, ra, rngs[t]),
                w.meter.read(w.app, ra, rngs[t])};
            ASSERT_TRUE(original.submit(ids[t], s));
            ASSERT_TRUE(restored.submit(ids[t], s));
        }
        original.tick();
        hits += restored.tick().cacheHits;
    }
    EXPECT_EQ(hits, 0u);
    linalg::ByteWriter a, b;
    original.saveSnapshot(a);
    restored.saveSnapshot(b);
    EXPECT_TRUE(a.bytes() == b.bytes());
}

/**
 * A save reserves the previous save's byte count up front, so a
 * repeat save into a fresh writer lands in one buffer of exactly its
 * size and writes the same bytes.
 */
TEST(ServiceSnapshot, RepeatSaveSizesItsBufferOnce)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(2));
    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 3; ++t)
        ids.push_back(*svc.admit(w.tenant(t)));
    auto rngs = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> sched;
    ASSERT_NO_FATAL_FAILURE(
        driveFleet(svc, w, w.monitor, w.meter, ids, rngs, 8, sched));

    linalg::ByteWriter first;
    svc.saveSnapshot(first);
    linalg::ByteWriter second;
    svc.saveSnapshot(second);
    EXPECT_EQ(second.bytes().capacity(), second.bytes().size());
    EXPECT_TRUE(second.bytes() == first.bytes());
}

namespace
{

/**
 * The hostile-byte sweeps' fleet: the n = 32 World with a six-app
 * prior, so that a blob stays small enough to cut at every offset.
 * The tenants run 10 windows (each fits once) and leave one batch
 * queued.
 */
struct SweepFleet
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool{0};
    ServiceOptions opt = w.serviceOptions(2);
    std::shared_ptr<const telemetry::ProfileStore> prior;
    std::string blob;

    explicit SweepFleet(std::size_t tenants)
    {
        std::vector<telemetry::ApplicationRecord> records(
            w.prior->records().begin(), w.prior->records().begin() + 6);
        prior = std::make_shared<const telemetry::ProfileStore>(
            std::move(records));
        Service svc(w.space, leo, prior, pool, opt);
        std::vector<std::uint64_t> ids;
        for (std::size_t t = 0; t < tenants; ++t)
            ids.push_back(*svc.admit(w.tenant(t)));
        auto rngs = measurementRngs(ids.size());
        std::vector<std::vector<std::size_t>> sched;
        driveFleet(svc, w, w.monitor, w.meter, ids, rngs, 10, sched);
        for (std::size_t t = 0; t < ids.size(); ++t) {
            const std::size_t cfg = svc.nextConfig(ids[t]);
            const auto &ra = w.space.assignment(cfg);
            (void)svc.submit(ids[t],
                             {cfg, w.monitor.measureRate(w.app, ra, rngs[t]),
                              w.meter.read(w.app, ra, rngs[t])});
        }
        linalg::ByteWriter writer;
        svc.saveSnapshot(writer);
        blob = writer.take();
    }
};

} // namespace

/** A service blob cut at any offset fails closed. One tenant covers
 *  every field a session writes. */
TEST(ServiceSnapshot, TruncationAtAnyOffsetFailsClosed)
{
    SweepFleet f(1);
    Service svc(f.w.space, f.leo, f.prior, f.pool, f.opt);
    for (std::size_t cut = 0; cut < f.blob.size(); ++cut) {
        const std::string part(f.blob, 0, cut);
        linalg::ByteReader r(part);
        ASSERT_FALSE(svc.restoreSnapshot(r)) << "cut at " << cut;
        ASSERT_EQ(svc.activeTenants(), 0u) << "cut at " << cut;
    }
    linalg::ByteReader whole(f.blob);
    EXPECT_TRUE(svc.restoreSnapshot(whole));
    EXPECT_EQ(svc.activeTenants(), 1u);
}

/**
 * 2000 seeded mutations of 1-4 flipped bits each. Every mutated blob
 * either fails closed (the service is left empty) or restores,
 * re-saves to exactly the mutated bytes, and serves 8 more windows
 * without a throw escaping. The snapshot carries no checksum, so a
 * flipped bit inside a double restores as live state; the accepted
 * share is printed.
 */
TEST(ServiceSnapshot, BitFlipsFailClosedOrResumeCanonically)
{
    SweepFleet f(2);
    stats::Rng pick(2024);
    const auto bits = static_cast<std::int64_t>(8 * f.blob.size());
    std::size_t accepted = 0;
    constexpr std::size_t kTrials = 2000;
    for (std::size_t trial = 0; trial < kTrials; ++trial) {
        std::string mutated = f.blob;
        const std::int64_t flips = pick.uniformInt(1, 4);
        for (std::int64_t k = 0; k < flips; ++k) {
            const std::int64_t bit = pick.uniformInt(0, bits - 1);
            mutated[static_cast<std::size_t>(bit / 8)] ^=
                static_cast<char>(1 << (bit % 8));
        }
        Service svc(f.w.space, f.leo, f.prior, f.pool, f.opt);
        linalg::ByteReader r(mutated);
        bool ok = false;
        ASSERT_NO_THROW(ok = svc.restoreSnapshot(r)) << "trial " << trial;
        if (!ok) {
            ASSERT_EQ(svc.activeTenants(), 0u) << "trial " << trial;
            continue;
        }
        ++accepted;
        linalg::ByteWriter again;
        svc.saveSnapshot(again);
        ASSERT_TRUE(again.bytes() == mutated) << "trial " << trial;
        const std::vector<std::uint64_t> ids = svc.tenantIds();
        stats::Rng meas(trial);
        ASSERT_NO_THROW({
            for (std::size_t round = 0; round < 8; ++round) {
                for (const std::uint64_t id : ids) {
                    const std::size_t cfg = svc.nextConfig(id);
                    ASSERT_LT(cfg, f.w.space.size()) << "trial " << trial;
                    const auto &ra = f.w.space.assignment(cfg);
                    (void)svc.submit(
                        id, {cfg, f.w.monitor.measureRate(f.w.app, ra, meas),
                             f.w.meter.read(f.w.app, ra, meas)});
                }
                (void)svc.tick();
            }
        }) << "trial " << trial;
    }
    std::printf("snapshot bit flips: %zu of %zu mutated %zu-byte blobs "
                "accepted\n",
                accepted, kTrials, f.blob.size());
    RecordProperty("accepted", static_cast<int>(accepted));
}

TEST(Service, PriorRefreshInstallsAtTickBoundary)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, w.serviceOptions(2));

    auto refreshed =
        std::make_shared<const telemetry::ProfileStore>(
            w.store.without("swish"));
    svc.refreshPrior(refreshed);
    EXPECT_EQ(svc.metrics().snapshot().counterOr(
                  obs::names::kServicePriorRefreshes),
              0u);
    svc.tick();
    EXPECT_EQ(svc.metrics().snapshot().counterOr(
                  obs::names::kServicePriorRefreshes),
              1u);
    // New admissions bind the refreshed prior without disturbance.
    EXPECT_TRUE(svc.admit(w.tenant(0)).has_value());
}

// ------------------------------------------------------ shard queue

TEST(ShardQueue, RoundsCapacityAndReportsIt)
{
    service::ShardQueue q(100);
    EXPECT_EQ(q.capacity(), 128u);
    service::ShardQueue q1(1);
    EXPECT_EQ(q1.capacity(), 1u);
}

TEST(ShardQueue, FifoAndFullRejection)
{
    service::ShardQueue q(4);
    service::InboundSample s;
    for (std::uint64_t i = 0; i < 4; ++i) {
        s.tenant = 1;
        s.seq = i;
        EXPECT_TRUE(q.push(s));
    }
    s.seq = 99;
    EXPECT_FALSE(q.push(s)); // Full.
    for (std::uint64_t i = 0; i < 4; ++i) {
        service::InboundSample out;
        ASSERT_TRUE(q.pop(out));
        EXPECT_EQ(out.seq, i);
    }
    service::InboundSample out;
    EXPECT_FALSE(q.pop(out)); // Empty.
    EXPECT_TRUE(q.push(s));   // Usable again after wrap.
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out.seq, 99u);
}

TEST(ShardQueue, ConcurrentProducersLoseNothing)
{
    service::ShardQueue q(1024);
    constexpr std::uint64_t kProducers = 4;
    constexpr std::uint64_t kEach = 200;
    std::vector<std::thread> producers;
    for (std::uint64_t t = 0; t < kProducers; ++t) {
        producers.emplace_back([&q, t] {
            service::InboundSample s;
            s.tenant = t;
            for (std::uint64_t i = 0; i < kEach; ++i) {
                s.seq = i;
                while (!q.push(s)) {
                }
            }
        });
    }
    for (auto &p : producers)
        p.join();

    std::vector<std::uint64_t> next(kProducers, 0);
    service::InboundSample out;
    std::size_t total = 0;
    while (q.pop(out)) {
        ++total;
        // Per-producer FIFO even under contention.
        EXPECT_EQ(out.seq, next[out.tenant]++);
    }
    EXPECT_EQ(total, kProducers * kEach);
}

// -------------------------------------------------------- fit cache

TEST(FitCache, EvictsLeastRecentlyUsedDeterministically)
{
    service::FitCache cache(2);
    service::FitCacheKey a{"a", 0, 1};
    service::FitCacheKey b{"b", 0, 2};
    service::FitCacheKey c{"c", 0, 3};
    cache.insert(a, {});
    cache.insert(b, {});
    EXPECT_NE(cache.lookup(a), nullptr); // a is now most recent.
    cache.insert(c, {});                 // Evicts b.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_NE(cache.lookup(a), nullptr);
    EXPECT_EQ(cache.lookup(b), nullptr);
    EXPECT_NE(cache.lookup(c), nullptr);
}

TEST(FitCache, ZeroCapacityDisables)
{
    service::FitCache cache(0);
    service::FitCacheKey k{"a", 0, 1};
    cache.insert(k, {});
    EXPECT_EQ(cache.lookup(k), nullptr);
    EXPECT_EQ(cache.size(), 0u);
}

TEST(FitCache, OverwriteRefreshesWithoutEviction)
{
    service::FitCache cache(2);
    service::FitCacheKey a{"a", 0, 1};
    service::CachedFit fit;
    fit.perfEstimate.reliable = true;
    cache.insert(a, {});
    cache.insert(a, std::move(fit));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 0u);
    const service::CachedFit *got = cache.lookup(a);
    ASSERT_NE(got, nullptr);
    EXPECT_TRUE(got->perfEstimate.reliable);
}

// ---------------------------------------------- global co-scheduling

namespace
{

/** Two-tenant fleet options with global planning on. */
ServiceOptions
planningOptions(const World &w, std::size_t shards)
{
    ServiceOptions o = w.serviceOptions(shards);
    o.globalPlanning = true;
    return o;
}

TenantConfig
planningTenant(const World &w, std::size_t i)
{
    TenantConfig c = w.tenant(i);
    // Modest demands so the shared machine stays feasible, with
    // staggered deadlines so the planner has real intervals.
    c.targetRate = (0.15 + 0.05 * static_cast<double>(i)) *
                   w.gt.performance.max();
    c.deadlineSeconds = 1.0 + 0.5 * static_cast<double>(i);
    return c;
}

} // namespace

TEST(ServiceGlobal, TickProducesAFleetPlanOnceEstimatesExist)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, planningOptions(w, 4));

    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 2; ++t)
        ids.push_back(*svc.admit(planningTenant(w, t)));

    // Before anyone has estimates there is nothing to plan.
    service::TickReport early = svc.tick();
    EXPECT_EQ(early.tenantsPlanned, 0u);
    EXPECT_EQ(svc.globalPlan().perTenant.size(), 0u);
    EXPECT_EQ(svc.tenantSchedule(ids[0]), nullptr);

    auto rngs = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> schedules;
    driveFleet(svc, w, w.monitor, w.meter, ids, rngs, 10, schedules);

    service::TickReport report = svc.tick();
    EXPECT_EQ(report.tenantsPlanned, 2u);
    EXPECT_TRUE(report.globalFeasible);
    EXPECT_GT(report.globalPredictedEnergy, 0.0);

    const auto &plan = svc.globalPlan();
    ASSERT_EQ(plan.perTenant.size(), 2u);
    EXPECT_TRUE(plan.feasible);
    for (const std::uint64_t id : ids) {
        const optimizer::Schedule *slice = svc.tenantSchedule(id);
        ASSERT_NE(slice, nullptr);
        EXPECT_FALSE(slice->parts.empty());
    }
    EXPECT_EQ(svc.tenantSchedule(9999), nullptr);
    EXPECT_GT(svc.metrics().snapshot().counterOr(
                  obs::names::kServiceGlobalReplans, 0),
              0u);

    // Closing a tenant invalidates the stale fleet plan until the
    // next tick rebuilds it without the departed tenant.
    EXPECT_TRUE(svc.close(ids[1]));
    EXPECT_EQ(svc.tenantSchedule(ids[0]), nullptr);
    svc.tick();
    EXPECT_NE(svc.tenantSchedule(ids[0]), nullptr);
    EXPECT_EQ(svc.tenantSchedule(ids[1]), nullptr);
    EXPECT_EQ(svc.globalPlan().perTenant.size(), 1u);
}

TEST(ServiceGlobal, FleetPlanInvariantUnderShardsAndThreads)
{
    World w;
    estimators::LeoEstimator leo;

    struct Run
    {
        double energy = 0.0;
        bool feasible = false;
        std::vector<optimizer::Schedule> slices;
    };
    auto runFleet = [&](std::size_t shards, std::size_t workers) {
        parallel::ThreadPool pool(workers);
        Service svc(w.space, leo, w.prior, pool,
                    planningOptions(w, shards));
        std::vector<std::uint64_t> ids;
        for (std::size_t t = 0; t < 3; ++t)
            ids.push_back(*svc.admit(planningTenant(w, t)));
        auto rngs = measurementRngs(ids.size());
        std::vector<std::vector<std::size_t>> schedules;
        driveFleet(svc, w, w.monitor, w.meter, ids, rngs, 12,
                   schedules);
        Run r;
        r.energy = svc.globalPlan().predictedEnergy;
        r.feasible = svc.globalPlan().feasible;
        for (const std::uint64_t id : ids)
            r.slices.push_back(*svc.tenantSchedule(id));
        return r;
    };

    const Run base = runFleet(1, 0);
    for (const auto &[shards, workers] :
         {std::pair<std::size_t, std::size_t>{2, 2},
          std::pair<std::size_t, std::size_t>{7, 4}}) {
        const Run other = runFleet(shards, workers);
        // Bitwise: the plan is a pure function of the session table.
        EXPECT_EQ(base.energy, other.energy)
            << shards << " shards " << workers << " workers";
        EXPECT_EQ(base.feasible, other.feasible);
        ASSERT_EQ(base.slices.size(), other.slices.size());
        for (std::size_t t = 0; t < base.slices.size(); ++t) {
            ASSERT_EQ(base.slices[t].parts.size(),
                      other.slices[t].parts.size());
            for (std::size_t i = 0; i < base.slices[t].parts.size();
                 ++i) {
                EXPECT_EQ(base.slices[t].parts[i].configIndex,
                          other.slices[t].parts[i].configIndex);
                EXPECT_EQ(base.slices[t].parts[i].seconds,
                          other.slices[t].parts[i].seconds);
            }
        }
    }
}

TEST(ServiceGlobal, RestorePlusTickReproducesThePlan)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, planningOptions(w, 4));

    std::vector<std::uint64_t> ids;
    for (std::size_t t = 0; t < 2; ++t)
        ids.push_back(*svc.admit(planningTenant(w, t)));
    auto rngs = measurementRngs(ids.size());
    std::vector<std::vector<std::size_t>> schedules;
    driveFleet(svc, w, w.monitor, w.meter, ids, rngs, 10, schedules);

    linalg::ByteWriter blob;
    svc.saveSnapshot(blob);

    Service copy(w.space, leo, w.prior, pool, planningOptions(w, 4));
    linalg::ByteReader r(blob.bytes());
    ASSERT_TRUE(copy.restoreSnapshot(r));
    // The fleet plan is derived state: absent after restore, rebuilt
    // bitwise by the next tick.
    EXPECT_EQ(copy.globalPlan().perTenant.size(), 0u);
    svc.tick();
    copy.tick();

    EXPECT_EQ(copy.globalPlan().predictedEnergy,
              svc.globalPlan().predictedEnergy);
    EXPECT_EQ(copy.globalPlan().feasible, svc.globalPlan().feasible);
    for (const std::uint64_t id : ids) {
        const optimizer::Schedule *a = svc.tenantSchedule(id);
        const optimizer::Schedule *b = copy.tenantSchedule(id);
        ASSERT_NE(a, nullptr);
        ASSERT_NE(b, nullptr);
        ASSERT_EQ(a->parts.size(), b->parts.size());
        for (std::size_t i = 0; i < a->parts.size(); ++i) {
            EXPECT_EQ(a->parts[i].configIndex,
                      b->parts[i].configIndex);
            EXPECT_EQ(a->parts[i].seconds, b->parts[i].seconds);
        }
    }
}

TEST(ServiceGlobal, RejectsBadDeadlines)
{
    World w;
    estimators::LeoEstimator leo;
    parallel::ThreadPool pool(0);
    Service svc(w.space, leo, w.prior, pool, planningOptions(w, 2));
    TenantConfig bad = planningTenant(w, 0);
    bad.deadlineSeconds = -1.0;
    EXPECT_FALSE(svc.admit(bad).has_value());
    bad.deadlineSeconds =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(svc.admit(bad).has_value());
}

/**
 * @file
 * Serving-core quickstart: many applications, one process.
 *
 * Builds the shared world once (machine, configuration space,
 * offline prior), admits a small fleet of tenants into
 * leo::service::Service, and drives each through its sampling phase
 * into steady-state control — samples flowing through the sharded
 * lock-free queues, all EM fits batched on the shared pool, cold
 * fits shared through the fit cache. Finishes with a snapshot
 * round-trip to show bit-identical resumption; the exit status is 0
 * only when the restored fleet re-saves to the same bytes and paces
 * every tenant identically.
 *
 *   ./service_quickstart [tenants]     (default: 6)
 */

#include <cstdio>
#include <string>

#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "parallel/thread_pool.hh"
#include "service/service.hh"
#include "telemetry/profile_store.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

int
main(int argc, char **argv)
{
    using namespace leo;
    const std::size_t tenants =
        argc > 1 ? static_cast<std::size_t>(std::stoul(argv[1])) : 6;

    // 1. The shared world: one machine, one space, one offline
    //    prior, one estimator, one pool — for every tenant.
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    telemetry::HeartbeatMonitor monitor(0.01);
    telemetry::WattsUpMeter meter(0.005, 0.1);
    stats::Rng store_rng(7);
    std::printf("Collecting the shared offline prior...\n");
    auto prior = std::make_shared<const telemetry::ProfileStore>(
        telemetry::ProfileStore::collect(workloads::standardSuite(),
                                         machine, space, monitor,
                                         meter, store_rng)
            .without("x264"));
    estimators::LeoEstimator estimator;
    parallel::ThreadPool pool(2);

    // 2. The service: 4 shards, deferred batched fits, fit cache.
    service::ServiceOptions opt;
    opt.shards = 4;
    opt.controller.sampleBudget = 6;
    opt.controller.idlePower = machine.spec().idleSystemPowerW;
    service::Service svc(space, estimator, prior, pool, opt);

    // 3. Admit the fleet: same application binary, different
    //    performance demands (think replicas behind a balancer).
    workloads::ApplicationModel app(workloads::profileByName("x264"),
                                    machine);
    const auto gt = workloads::computeGroundTruth(app, space);
    std::vector<std::uint64_t> ids;
    std::vector<stats::Rng> meas;
    for (std::size_t t = 0; t < tenants; ++t) {
        service::TenantConfig cfg;
        cfg.appId = "x264";
        cfg.targetRate =
            (0.3 + 0.4 * static_cast<double>(t) /
                       static_cast<double>(tenants)) *
            gt.performance.max();
        cfg.seed = 100 + t;
        ids.push_back(*svc.admit(cfg));
        meas.emplace_back(900 + t);
    }
    std::printf("Admitted %zu tenants across %zu shards.\n",
                svc.activeTenants(), opt.shards);

    // 4. The serving loop: ask, measure, submit, tick. In a real
    //    deployment submit() is called from the tenants' own threads;
    //    tick() runs on the control plane.
    for (std::size_t round = 0; round < 16; ++round) {
        for (std::size_t t = 0; t < tenants; ++t) {
            const std::size_t cfg = svc.nextConfig(ids[t]);
            const auto &ra = space.assignment(cfg);
            svc.submit(ids[t],
                       {cfg, monitor.measureRate(app, ra, meas[t]),
                        meter.read(app, ra, meas[t])});
        }
        const auto report = svc.tick();
        if (report.tenantsFitted > 0)
            std::printf("  tick %2zu: %zu windows, fitted %zu "
                        "tenants (%zu EM fits batched, %zu cache "
                        "hits)\n",
                        round, report.windowsProcessed,
                        report.tenantsFitted, report.fitsBatched,
                        report.cacheHits);
    }

    // 5. Snapshot and restore: the restored service resumes every
    //    tenant's schedule bit for bit.
    linalg::ByteWriter writer;
    svc.saveSnapshot(writer);
    const std::string blob = writer.take();
    service::Service resumed(space, estimator, prior, pool, opt);
    linalg::ByteReader reader(blob);
    if (!resumed.restoreSnapshot(reader)) {
        std::fprintf(stderr, "restore failed\n");
        return 1;
    }
    // The restored fleet re-saves to the same bytes and paces every
    // tenant on the same configuration next.
    linalg::ByteWriter again;
    resumed.saveSnapshot(again);
    bool identical = again.bytes() == blob;
    for (std::size_t t = 0; t < tenants; ++t)
        identical = identical &&
                    svc.nextConfig(ids[t]) == resumed.nextConfig(ids[t]);
    std::printf("Snapshot: %zu bytes; restored fleet resumes %s.\n",
                blob.size(),
                identical ? "bit-identically" : "DIFFERENTLY (bug!)");

    const auto snap = svc.metrics().snapshot();
    std::printf("Counters: %llu windows, %llu fits batched, "
                "%llu cache hits.\n",
                static_cast<unsigned long long>(snap.counterOr(
                    obs::names::kServiceWindowsProcessed)),
                static_cast<unsigned long long>(snap.counterOr(
                    obs::names::kServiceFitsBatched)),
                static_cast<unsigned long long>(
                    snap.counterOr(obs::names::kServiceCacheHits)));
    return identical ? 0 : 1;
}

/**
 * @file
 * Multi-tenant serving-core throughput at 1, 4 and 16 shards.
 *
 * Drives a fleet of tenants — admission through the sampling phase,
 * the batched deferred fit, and steady-state controlling windows —
 * through leo::service::Service and reports tenants/sec (full
 * onboarding-to-controlling throughput) and windows/sec at each
 * shard count, with the pool sized to the shard count. Every run is
 * cross-checked for bitwise-identical per-tenant schedules against
 * the 1-shard baseline: shard count is a throughput knob, never a
 * behavior knob, so any divergence is a bug, not noise.
 *
 * The space is the 256-configuration reduction, where a fit's basis
 * (q <= M + |Omega|) is a small fraction of n — the regime the
 * batched refit pillar is built around.
 *
 * After the drive, the 1-shard fleet is snapshotted and restored into
 * a fresh service LEO_BENCH_REPEATS times: the save and restore rows
 * report the median milliseconds and the blob's bytes, and the
 * restored fleet must re-save to the same bytes.
 *
 * Emits google-benchmark-format JSON (consumed by tools/bench_diff.py
 * in CI) to BENCH_service.json, or to argv[1] when given.
 *
 * Environment knobs (bench_common.hh conventions):
 *   LEO_BENCH_TENANTS   fleet size (default 32)
 *   LEO_BENCH_WINDOWS   windows per tenant (default 12)
 *   LEO_BENCH_REPEATS   timing repeats: best-of for the drive rows,
 *                       median for the snapshot rows (default 3)
 *
 * Note: shard scaling needs physical cores; on a single-core host
 * every row times the same inline path and the scaling column reads
 * ~1x.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "linalg/serialize.hh"
#include "parallel/thread_pool.hh"
#include "service/service.hh"

using namespace leo;

namespace
{

struct DriveResult
{
    double ms = 0.0;
    std::size_t windows = 0;
    std::vector<std::vector<std::size_t>> schedules;
};

/** Save/restore timings of the driven fleet. */
struct SnapshotResult
{
    double saveMs = 0.0;    //!< Median saveSnapshot wall time.
    double restoreMs = 0.0; //!< Median restoreSnapshot wall time.
    std::size_t bytes = 0;
    /** Every restored fleet re-saved to the saved bytes. */
    bool roundTrips = true;
};

double
msSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

DriveResult
driveFleet(const bench::World &world,
           const estimators::LeoEstimator &estimator,
           const std::shared_ptr<const telemetry::ProfileStore> &prior,
           const workloads::ApplicationModel &app, std::size_t shards,
           std::size_t tenants, std::size_t windows,
           SnapshotResult *snap = nullptr, std::size_t repeats = 0)
{
    // Pool sized to the shard count: the drain/fit parallelism under
    // measurement is exactly the parallelism a deployment of this
    // shard count would configure.
    parallel::ThreadPool pool(shards - 1);
    service::ServiceOptions opt;
    opt.shards = shards;
    opt.maxTenants = tenants;
    opt.controller.sampleBudget = 6;
    opt.controller.idlePower = world.machine.spec().idleSystemPowerW;

    service::Service svc(world.space, estimator, prior, pool, opt);
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;

    std::vector<std::uint64_t> ids;
    std::vector<stats::Rng> rngs;
    const double peak = 40.0; // Demands spread below x264's peak.
    for (std::size_t t = 0; t < tenants; ++t) {
        service::TenantConfig cfg;
        cfg.appId = "x264";
        cfg.targetRate =
            (0.3 + 0.4 * static_cast<double>(t % 8) / 8.0) * peak;
        cfg.seed = bench::seed() + 1000 + t;
        const auto id = svc.admit(cfg);
        if (!id.has_value()) {
            std::fprintf(stderr, "admission failed\n");
            std::exit(1);
        }
        ids.push_back(*id);
        rngs.emplace_back(bench::seed() + 5000 + t);
    }

    DriveResult res;
    res.schedules.resize(tenants);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t round = 0; round < windows; ++round) {
        for (std::size_t t = 0; t < tenants; ++t) {
            const std::size_t cfg = svc.nextConfig(ids[t]);
            res.schedules[t].push_back(cfg);
            const auto &ra = world.space.assignment(cfg);
            if (!svc.submit(ids[t],
                            {cfg,
                             monitor.measureRate(app, ra, rngs[t]),
                             meter.read(app, ra, rngs[t])})) {
                std::fprintf(stderr, "submit rejected\n");
                std::exit(1);
            }
        }
        const auto report = svc.tick();
        res.windows += report.windowsProcessed;
    }
    res.ms = msSince(t0);
    if (snap == nullptr)
        return res;

    // Snapshot the driven fleet and restore it into a fresh service;
    // only the two calls are timed.
    std::vector<double> save_ms, restore_ms;
    for (std::size_t r = 0; r < repeats; ++r) {
        linalg::ByteWriter w;
        auto t = std::chrono::steady_clock::now();
        svc.saveSnapshot(w);
        save_ms.push_back(msSince(t));
        const std::string blob = w.take();
        service::Service restored(world.space, estimator, prior, pool,
                                  opt);
        linalg::ByteReader rd(blob);
        t = std::chrono::steady_clock::now();
        const bool ok = restored.restoreSnapshot(rd);
        restore_ms.push_back(msSince(t));
        linalg::ByteWriter again;
        restored.saveSnapshot(again);
        snap->roundTrips =
            snap->roundTrips && ok && again.bytes() == blob;
        snap->bytes = blob.size();
    }
    snap->saveMs = median(save_ms);
    snap->restoreMs = median(restore_ms);
    return res;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("overhead_service — serving-core throughput",
                  "Multi-tenant service acceptance (DESIGN.md, "
                  "Multi-tenant service)");

    platform::Machine machine;
    bench::World world = bench::makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 2, 2));
    const std::size_t tenants =
        experiments::envSize("LEO_BENCH_TENANTS", 32);
    const std::size_t windows =
        experiments::envSize("LEO_BENCH_WINDOWS", 12);
    const std::size_t repeats =
        experiments::envSize("LEO_BENCH_REPEATS", 3);

    const estimators::LeoEstimator estimator;
    const auto prior =
        std::make_shared<const telemetry::ProfileStore>(
            world.store.without("x264"));
    const workloads::ApplicationModel app(
        workloads::profileByName("x264"), machine);

    std::printf("%zu tenants, %zu windows each, %zu configurations, "
                "hardware concurrency %zu\n\n",
                tenants, windows, world.space.size(),
                static_cast<std::size_t>(
                    std::thread::hardware_concurrency()));
    std::printf("%-8s %12s %14s %14s %9s %8s\n", "shards", "best ms",
                "tenants/s", "windows/s", "scaling", "bitwise");

    const std::size_t shard_counts[] = {1, 4, 16};
    std::vector<std::vector<std::size_t>> baseline;
    double baseline_ms = 0.0;
    std::string json = "{\n  \"context\": {\"executable\": "
                       "\"overhead_service\"},\n  \"benchmarks\": [\n";
    bool first_row = true;
    SnapshotResult snap;
    for (const std::size_t shards : shard_counts) {
        DriveResult best;
        for (std::size_t r = 0; r < repeats; ++r) {
            // The first 1-shard drive also times the snapshot rows.
            const bool time_snapshot = shards == 1 && r == 0;
            DriveResult run = driveFleet(
                world, estimator, prior, app, shards, tenants, windows,
                time_snapshot ? &snap : nullptr, repeats);
            if (r == 0 || run.ms < best.ms)
                best = std::move(run);
        }
        if (shards == 1) {
            baseline = best.schedules;
            baseline_ms = best.ms;
        }
        const bool bitwise = best.schedules == baseline;
        const double tenants_per_s =
            1e3 * static_cast<double>(tenants) / best.ms;
        const double windows_per_s =
            1e3 * static_cast<double>(best.windows) / best.ms;
        std::printf("%-8zu %12.1f %14.0f %14.0f %8.2fx %8s\n",
                    shards, best.ms, tenants_per_s, windows_per_s,
                    baseline_ms / best.ms, bitwise ? "yes" : "NO");

        char row[512];
        std::snprintf(
            row, sizeof(row),
            "%s    {\"name\": \"BM_ServiceDrive/shards:%zu\", "
            "\"run_type\": \"iteration\", \"iterations\": 1, "
            "\"real_time\": %.3f, \"cpu_time\": %.3f, "
            "\"time_unit\": \"ms\", \"tenants_per_second\": %.1f, "
            "\"windows_per_second\": %.1f}",
            first_row ? "" : ",\n", shards, best.ms, best.ms,
            tenants_per_s, windows_per_s);
        json += row;
        first_row = false;
        if (!bitwise) {
            std::fprintf(stderr,
                         "schedule diverged at %zu shards\n", shards);
            return 1;
        }
    }
    std::printf("\n%-10s %12s %12s %9s\n", "snapshot", "median ms",
                "bytes", "bitwise");
    std::printf("%-10s %12.3f %12zu %9s\n", "save", snap.saveMs,
                snap.bytes, snap.roundTrips ? "yes" : "NO");
    std::printf("%-10s %12.3f %12zu %9s\n", "restore", snap.restoreMs,
                snap.bytes, snap.roundTrips ? "yes" : "NO");
    for (const auto &[name, ms] :
         {std::pair{"BM_ServiceSnapshot/save", snap.saveMs},
          std::pair{"BM_ServiceSnapshot/restore", snap.restoreMs}}) {
        char row[384];
        std::snprintf(row, sizeof(row),
                      ",\n    {\"name\": \"%s\", \"run_type\": "
                      "\"iteration\", \"iterations\": %zu, "
                      "\"real_time\": %.4f, \"cpu_time\": %.4f, "
                      "\"time_unit\": \"ms\", \"bytes\": %zu}",
                      name, repeats, ms, ms, snap.bytes);
        json += row;
    }
    json += "\n  ]\n}\n";
    if (!snap.roundTrips) {
        std::fprintf(stderr, "restored fleet re-saved other bytes\n");
        return 1;
    }

    const std::string out =
        argc > 1 ? argv[1] : "BENCH_service.json";
    if (std::FILE *f = std::fopen(out.c_str(), "w")) {
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::printf("\nwrote %s\n", out.c_str());
    } else {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    std::printf("Note: shard scaling needs physical cores; on a "
                "single-core host all rows time the same inline "
                "path.\n");
    return 0;
}

/**
 * @file
 * leo::service — the long-running multi-tenant serving core.
 *
 * The paper's controller manages exactly one application per
 * process; this module serves fleets of them from one process by
 * amortizing the shared machinery (offline prior, thread pool, EM
 * batching) across N per-tenant EnergyController sessions:
 *
 *  - **Sharded dispatch.** Tenants hash (tenant id mod shards) onto
 *    shards, each with its own lock-free inbound ShardQueue.
 *    submit() is wait-free against the control plane; tick() drains
 *    every shard in one parallel region, each shard replaying its
 *    batch sorted by (tenant, sequence) so producer interleaving
 *    never reaches a controller — per-tenant schedules are
 *    bitwise-identical at any shard or thread count.
 *  - **Batched warm refits.** Tenant controllers run with
 *    deferFits: a completed probe plan parks the session, the tick
 *    collects every parked tenant and runs all their EM fits through
 *    one EstimatorBatch on the shared pool — one parallel region for
 *    the whole fleet instead of N tiny ones — then hands each result
 *    back through applyExternalFit() (bitwise identical to the
 *    inline fit, see controller.hh).
 *  - **Fit cache + shared prior.** Cold fits are pure functions of
 *    (app id, prior version, observation hash);
 *    FitCache shares them across tenants. The offline prior is one
 *    shared immutable snapshot; refreshPrior() stages a new one from
 *    any thread and tick() installs it at the next boundary (running
 *    sessions keep the prior they started with — a fit must never
 *    change under a tenant mid-run). Each prior version gets one
 *    estimators::PriorBasis per metric, built in the constructor or
 *    in refreshPrior() and pinned by every session with its prior,
 *    so a batched fit only adds its own observed directions, and
 *    the fit keeps a shared reference to the basis instead of a
 *    copy of its rows.
 *  - **Global co-scheduling.** With ServiceOptions::globalPlanning
 *    on, every tick() ends by co-scheduling all tenants that have
 *    estimates onto the one machine through the interval LP of
 *    optimizer/global.hh, optionally under a machine power cap. The
 *    fleet plan is exposed through globalPlan()/tenantSchedule() and
 *    is a pure function of the session table, so it inherits the
 *    shard- and thread-count independence of the replay.
 *  - **Snapshot/restore.** saveSnapshot() serializes each prior
 *    version a session pins (plus the live one) once, then every
 *    session (controller state incl. low-rank fit factors, RNG
 *    engine, sequence counters) plus undrained queue contents. A fit
 *    names its prior by fingerprint and lists its observed units
 *    instead of carrying basis rows (estimators/fit_io.hh).
 *    restoreSnapshot() into a service built over the same space,
 *    estimator and options pins each session to its own prior
 *    version and resumes every schedule bit for bit.
 *
 * Threading contract: submit() is safe from any number of threads
 * concurrently with other submit() calls, with nextConfig() and with
 * tick() — the data plane never locks. nextConfig() is additionally
 * safe concurrently for *distinct* tenants. admit(), close(),
 * tick(), saveSnapshot() and restoreSnapshot() are control-plane
 * calls: they mutate or replay the session table and must be
 * externally serialized with each other and — for admit(), close()
 * and restoreSnapshot(), which change the table itself — with the
 * data-plane calls too. refreshPrior() is safe from any thread.
 */

#ifndef LEO_SERVICE_SERVICE_HH
#define LEO_SERVICE_SERVICE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "obs/obs.hh"
#include "optimizer/global.hh"
#include "parallel/thread_pool.hh"
#include "runtime/controller.hh"
#include "service/fit_cache.hh"
#include "service/shard_queue.hh"
#include "stats/rng.hh"
#include "telemetry/profile_store.hh"

namespace leo::service
{

/** Tunables of the serving core. */
struct ServiceOptions
{
    /** Shard count; tenants hash onto shards by id. */
    std::size_t shards = 4;
    /** Per-shard inbound queue slots (rounded up to a power of 2);
     *  a full queue rejects submit() — backpressure, not blocking. */
    std::size_t queueCapacity = 1024;
    /** Admission limit; admit() beyond it is rejected. */
    std::size_t maxTenants = 256;
    /** Cold-fit cache entries (0 disables the cache). */
    std::size_t fitCacheCapacity = 64;
    /** Template for per-tenant controllers. targetRate is replaced
     *  by each tenant's demand and deferFits is forced on (the
     *  service owns the fit batching). */
    runtime::ControllerOptions controller;
    /** When true, every tick() ends by co-scheduling the whole fleet
     *  on one machine with optimizer::planGlobalSchedule; the result
     *  is exposed through globalPlan() / tenantSchedule(). */
    bool globalPlanning = false;
    /** Machine-wide average-power cap fed to the global planner. */
    double powerCapWatts = optimizer::kNoPowerCap;
    /** Deadline given to tenants that do not set their own: each
     *  horizon must deliver targetRate * horizon heartbeats. */
    double planningHorizonSeconds = 1.0;
};

/** Per-tenant admission parameters. */
struct TenantConfig
{
    /** Application identity (the fit-cache key component). */
    std::string appId;
    /** Performance demand in heartbeats/s. */
    double targetRate = 1.0;
    /** Global-planning deadline (seconds); tenants with a tighter
     *  deadline are packed earlier by the co-scheduler. 0 (the
     *  default) inherits ServiceOptions::planningHorizonSeconds. */
    double deadlineSeconds = 0.0;
    /** Seed of the tenant's private probe-selection RNG; the whole
     *  run is a deterministic function of (config, seed, samples). */
    std::uint64_t seed = 0x1ef0;
};

/** What one tick() did. */
struct TickReport
{
    /** Measurement windows applied across all tenants. */
    std::size_t windowsProcessed = 0;
    /** EM fits executed in the shared batch (2 per fitted tenant). */
    std::size_t fitsBatched = 0;
    /** Deferred fits satisfied from the cache. */
    std::size_t cacheHits = 0;
    /** Tenants whose deferred fit completed this tick. */
    std::size_t tenantsFitted = 0;
    /** Tenants included in the global co-schedule (0 = planning off
     *  or no tenant has estimates yet). */
    std::size_t tenantsPlanned = 0;
    /** True iff the last global plan met every constraint. */
    bool globalFeasible = true;
    /** Predicted machine energy of the global plan (Joules). */
    double globalPredictedEnergy = 0.0;
};

/**
 * The multi-tenant serving core. See the file comment for the
 * architecture and the threading contract.
 */
class Service
{
  public:
    /**
     * @param space     Configuration space shared by every tenant.
     * @param estimator Shared LEO estimator (borrowed; its
     *                  estimateMetric is const-thread-safe).
     * @param prior     Initial shared offline prior.
     * @param pool      Pool tick() fans across (borrowed).
     * @param options   Service knobs.
     */
    Service(const platform::ConfigSpace &space,
            const estimators::LeoEstimator &estimator,
            std::shared_ptr<const telemetry::ProfileStore> prior,
            parallel::ThreadPool &pool, ServiceOptions options);

    /**
     * Admit one tenant.
     *
     * @return Its tenant id, or nullopt when the service is at
     *         maxTenants (counted as a rejection).
     */
    std::optional<std::uint64_t> admit(const TenantConfig &config);

    /** Close a tenant; its queued samples are dropped at the next
     *  tick. @return False iff the id is unknown. */
    bool close(std::uint64_t tenant);

    /** @return Number of live tenants. */
    std::size_t activeTenants() const { return sessions_.size(); }

    /** @return The live tenants' ids, ascending (after a restore,
     *  the ones the snapshot brought back). */
    std::vector<std::uint64_t> tenantIds() const;

    /**
     * Configuration tenant `tenant` should run its next window in.
     * Fleet-order independent: the answer depends only on this
     * tenant's own history.
     */
    std::size_t nextConfig(std::uint64_t tenant);

    /**
     * Route one measurement to the tenant's shard queue. Safe from
     * any thread; lock-free against every other producer.
     *
     * @return False iff the tenant is unknown or its shard queue is
     *         full (the sample was dropped and counted).
     */
    bool submit(std::uint64_t tenant, const telemetry::Sample &s);

    /**
     * Drain every shard, apply the samples, and run all due fits in
     * one shared batch. Control-plane exclusive; see the threading
     * contract.
     */
    TickReport tick();

    /**
     * Stage a refreshed offline prior (built in the background by
     * the caller); tick() installs it at the next boundary. New
     * admissions then use it — existing sessions keep the prior they
     * started with. Builds the new prior's bases here, on the
     * caller's thread, so tick() only swaps pointers.
     */
    void refreshPrior(
        std::shared_ptr<const telemetry::ProfileStore> prior);

    /**
     * Serialize each prior version a session pins plus the live one
     * (version number and profile store, once each), every session,
     * and the undrained queue contents. Call between ticks
     * (control-plane exclusive); concurrent submit() traffic may or
     * may not make the snapshot.
     */
    void saveSnapshot(linalg::ByteWriter &w);

    /**
     * Restore a snapshot into this service. The space, estimator kind
     * and options must match the saved service's; the snapshot
     * carries runtime state, not construction parameters. The offline
     * priors travel in the snapshot: the constructor's prior need not
     * match. Restore builds one set of bases per saved prior version,
     * pins each session to its own version, and reinstalls the saved
     * live prior and version number, so every tenant resumes its
     * schedule bit for bit, also across prior refreshes. A staged
     * refreshPrior() is kept, and the fit cache starts empty.
     *
     * On failure the service is left empty and false is returned:
     * a truncated or mismatched blob, an unknown or duplicate prior
     * version, a version no session pins, a malformed profile store,
     * a fit saved on another prior, trailing bytes, session ids or
     * queued samples out of order, or engine text the engine would
     * not write. With change-point detection off, every accepted blob
     * re-saves to its own bytes; a detector that fails to restore
     * degrades as before (EnergyController::restoreState).
     */
    bool restoreSnapshot(linalg::ByteReader &r);

    /**
     * Latest fleet co-schedule (empty before the first planning
     * tick, or when globalPlanning is off). Derived state: it is not
     * snapshotted, and restoring + one tick() reproduces it exactly.
     */
    const optimizer::GlobalSchedule &globalPlan() const
    {
        return global_plan_;
    }

    /** The tenant's slice of the latest global plan, or nullptr when
     *  the tenant was not in it (unknown, closed, or no estimates at
     *  planning time). */
    const optimizer::Schedule *tenantSchedule(
        std::uint64_t tenant) const;

    /** @return The service's private metrics registry. */
    const obs::Registry &metrics() const { return obs_; }

    /** @return The shard an id hashes to (exposed for tests). */
    std::size_t shardOf(std::uint64_t tenant) const
    {
        return static_cast<std::size_t>(tenant %
                                        options_.shards);
    }

  private:
    /** One tenant session. */
    struct Session
    {
        std::uint64_t id = 0;
        TenantConfig config;
        stats::Rng rng;
        std::unique_ptr<runtime::EnergyController> controller;
        /** Prior snapshot pinned at admission. */
        std::shared_ptr<const telemetry::ProfileStore> prior;
        /** Version of the pinned prior (fit-cache key component). */
        std::uint64_t priorVersion = 0;
        /** Bases of the pinned prior, shared with every session on
         *  the same version and with the session's controller. */
        std::shared_ptr<const estimators::PriorBases> bases;
        /** Per-tenant submission sequence (drain sort key). */
        std::atomic<std::uint64_t> submitSeq{0};
        /** Windows applied so far. */
        std::uint64_t windows = 0;

        Session(std::uint64_t id_, TenantConfig config_)
            : id(id_), config(std::move(config_)), rng(config.seed)
        {
        }
    };

    /** Build a controller for a (new or restored) session on its
     *  pinned prior and that prior's shared bases. */
    std::unique_ptr<runtime::EnergyController> makeController(
        const Session &sess) const;

    /** Run the deferred fits of `pending` (sorted tenant ids). */
    void runDeferredFits(const std::vector<std::uint64_t> &pending,
                         TickReport &report);

    /** Re-plan the fleet co-schedule from current estimates. */
    void globalReplan(TickReport &report);

    const platform::ConfigSpace &space_;
    const estimators::LeoEstimator &estimator_; // leo-lint: allow(snapshot-completeness) borrowed dependency, rebound on construction
    parallel::ThreadPool &pool_; // leo-lint: allow(snapshot-completeness) borrowed dependency, rebound on construction
    ServiceOptions options_;

    /** Live prior + version, swapped only at tick boundaries and by
     *  a restore. */
    std::shared_ptr<const telemetry::ProfileStore> prior_;
    std::uint64_t prior_version_ = 0;
    /** Bases of the live prior (built with it, never in tick()). */
    std::shared_ptr<const estimators::PriorBases> bases_; // leo-lint: allow(snapshot-completeness) derived from the live prior, rebuilt by construction and restore
    /** Staged prior from refreshPrior() (any thread). */
    std::mutex pending_prior_mutex_; // leo-lint: allow(snapshot-completeness) synchronization primitive
    std::shared_ptr<const telemetry::ProfileStore> pending_prior_; // leo-lint: allow(snapshot-completeness) in-flight update, intentionally dropped
    std::shared_ptr<const estimators::PriorBases> pending_bases_; // leo-lint: allow(snapshot-completeness) in-flight update, intentionally dropped

    std::uint64_t next_id_ = 0;
    /** Sessions ordered by id (determinism: iteration order is the
     *  replay order, so it must not depend on memory layout). */
    std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
    std::vector<std::unique_ptr<ShardQueue>> queues_;
    FitCache cache_; // leo-lint: allow(snapshot-completeness) cache, rebuilt on demand
    /** Evictions already forwarded to the eviction counter. */
    std::size_t evictions_seen_ = 0; // leo-lint: allow(snapshot-completeness) derived diagnostic
    /** Byte count of the last saved snapshot: the next save reserves
     *  it up front. */
    std::size_t last_snapshot_bytes_ = 0; // leo-lint: allow(snapshot-completeness) sizing hint the writer reads, not state

    /** Latest fleet co-schedule and the ids it covers (id order,
     *  index-aligned with global_plan_.perTenant). Derived state:
     *  rebuilt every planning tick, never snapshotted. */
    optimizer::GlobalSchedule global_plan_;
    std::vector<std::uint64_t> global_tenants_;

    /** Instance-local metrics (mirrors the controller pattern). */
    obs::Registry obs_; // leo-lint: allow(snapshot-completeness) process-local metric
    obs::Counter tenants_admitted_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceTenantsAdmitted);
    obs::Counter tenants_rejected_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceTenantsRejected);
    obs::Counter tenants_closed_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceTenantsClosed);
    obs::Gauge tenants_active_ =
        obs_.gauge(obs::names::kServiceTenantsActive);
    obs::Counter samples_enqueued_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceSamplesEnqueued);
    obs::Counter samples_dropped_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceSamplesDropped);
    obs::Counter windows_processed_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceWindowsProcessed);
    obs::Counter ticks_run_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceTicksRun);
    obs::Counter fits_batched_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceFitsBatched);
    obs::Counter cache_hits_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceCacheHits);
    obs::Counter cache_misses_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceCacheMisses);
    obs::Counter cache_evictions_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceCacheEvictions);
    obs::Counter prior_refreshes_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServicePriorRefreshes);
    obs::Counter snapshots_saved_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceSnapshotsSaved);
    obs::Counter snapshots_restored_ =
        obs_.counter(obs::names::kServiceSnapshotsRestored);
    obs::Counter global_replans_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceGlobalReplans);
    obs::Counter global_infeasible_ = // leo-lint: allow(snapshot-completeness) process-local metric
        obs_.counter(obs::names::kServiceGlobalInfeasible);
    obs::Histogram tick_ms_ = obs_.histogram( // leo-lint: allow(snapshot-completeness) process-local metric
        obs::names::kServiceTickMs, obs::defaultTimeBucketsMs());
};

} // namespace leo::service

#endif // LEO_SERVICE_SERVICE_HH

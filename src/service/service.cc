/**
 * @file
 * Implementation of the multi-tenant serving core.
 */

#include "service/service.hh"

#include <algorithm>
#include <cmath>
#include <exception>
#include <sstream>
#include <tuple>

#include "linalg/error.hh"
#include "parallel/parallel_for.hh"

namespace leo::service
{

namespace
{

/** Snapshot format version; bump when the field list changes.
 *  v2 added TenantConfig::deadlineSeconds; v3 added the prior table
 *  and saved fits without their basis; v4 saves each controller
 *  without its refitter states (controller state v2); v5 saves its
 *  change-point detectors without run-length arrays (controller state
 *  v3); v6 saved fits without mu (controller state v4); v7 saves no
 *  fits, which restore re-derives (controller state v5). */
constexpr std::uint32_t kSnapshotVersion = 7;

/** Per-shard inbound queue slots (a power of 2): a full queue
 *  rejects submit() — backpressure, not blocking. */
constexpr std::size_t kQueueCapacity = 1024;

/** Deadline given to tenants that do not set their own: each horizon
 *  must deliver targetRate * horizon heartbeats. */
constexpr double kPlanningHorizonSeconds = 1.0;

/** Append one offline profile (its fields in declaration order). */
void
writeRecord(linalg::ByteWriter &w, const telemetry::ApplicationRecord &rec)
{
    w.str(rec.name);
    w.vec(rec.performance);
    w.vec(rec.power);
}

/** Read one profile written by writeRecord (never throws). */
telemetry::ApplicationRecord
readRecord(linalg::ByteReader &r)
{
    telemetry::ApplicationRecord rec;
    rec.name = r.str();
    rec.performance = r.vec();
    rec.power = r.vec();
    return rec;
}

/**
 * Read one saved profile store over an n-configuration space: a u64
 * record count, then the records. Null, with the reader failed, when
 * the buffer is short or a record's vectors are not n long.
 */
std::shared_ptr<const telemetry::ProfileStore>
readProfileStore(linalg::ByteReader &r, std::size_t n)
{
    const std::uint64_t apps = r.u64();
    std::vector<telemetry::ApplicationRecord> records;
    for (std::uint64_t i = 0; i < apps && r.ok(); ++i) {
        records.push_back(readRecord(r));
        if (records.back().performance.size() != n ||
            records.back().power.size() != n)
            r.fail();
    }
    if (!r.ok())
        return nullptr;
    try {
        return std::make_shared<const telemetry::ProfileStore>(
            std::move(records));
    } catch (const std::exception &) {
        r.fail();
        return nullptr;
    }
}

} // namespace

Service::Service(const platform::ConfigSpace &space,
                 const estimators::LeoEstimator &estimator,
                 std::shared_ptr<const telemetry::ProfileStore> prior,
                 parallel::ThreadPool &pool, ServiceOptions options)
    : space_(space), estimator_(estimator), pool_(pool),
      options_(options), prior_(std::move(prior)),
      cache_(options.fitCacheCapacity)
{
    require(options_.shards >= 1, "Service: need >= 1 shard");
    require(!std::isnan(options_.powerCapWatts),
            "Service: power cap is NaN");
    require(prior_ != nullptr, "Service: null offline prior");
    require(prior_->spaceSize() == space_.size() ||
                prior_->numApplications() == 0,
            "Service: prior/space size mismatch");
    bases_ = estimators::PriorBases::build(*prior_);
    queues_.reserve(options_.shards);
    for (std::size_t s = 0; s < options_.shards; ++s)
        queues_.push_back(
            std::make_unique<ShardQueue>(kQueueCapacity));
}

std::unique_ptr<runtime::EnergyController>
Service::makeController(const Session &sess) const
{
    runtime::ControllerOptions copts = options_.controller;
    copts.targetRate = sess.config.targetRate;
    // The service owns fit scheduling: every controller defers.
    copts.deferFits = true;
    return std::make_unique<runtime::EnergyController>(
        space_, &estimator_, *sess.prior, copts, sess.bases);
}

std::optional<std::uint64_t>
Service::admit(const TenantConfig &config)
{
    if (sessions_.size() >= options_.maxTenants ||
        !(config.targetRate > 0.0) ||
        !std::isfinite(config.targetRate) ||
        !(config.deadlineSeconds >= 0.0) ||
        !std::isfinite(config.deadlineSeconds)) {
        tenants_rejected_.add(1);
        return std::nullopt;
    }
    const std::uint64_t id = next_id_++;
    auto sess = std::make_unique<Session>(id, config);
    sess->prior = prior_;
    sess->priorVersion = prior_version_;
    sess->bases = bases_;
    sess->controller = makeController(*sess);
    sessions_[id] = std::move(sess);
    tenants_admitted_.add(1);
    tenants_active_.set(static_cast<double>(sessions_.size()));
    return id;
}

bool
Service::close(std::uint64_t tenant)
{
    const auto it = sessions_.find(tenant);
    if (it == sessions_.end())
        return false;
    sessions_.erase(it);
    // Drop the fleet plan rather than serve the closed tenant's
    // stale slice; the next tick() rebuilds it.
    global_plan_ = optimizer::GlobalSchedule{};
    global_tenants_.clear();
    tenants_closed_.add(1);
    tenants_active_.set(static_cast<double>(sessions_.size()));
    return true;
}

std::vector<std::uint64_t>
Service::tenantIds() const
{
    std::vector<std::uint64_t> ids;
    ids.reserve(sessions_.size());
    for (const auto &[id, sess] : sessions_)
        ids.push_back(id);
    return ids;
}

std::size_t
Service::nextConfig(std::uint64_t tenant)
{
    const auto it = sessions_.find(tenant);
    require(it != sessions_.end(), "Service: unknown tenant");
    Session &sess = *it->second;
    return sess.controller->nextConfig(sess.rng);
}

bool
Service::submit(std::uint64_t tenant, const telemetry::Sample &s)
{
    const auto it = sessions_.find(tenant);
    if (it == sessions_.end()) {
        samples_dropped_.add(1);
        return false;
    }
    InboundSample item;
    item.tenant = tenant;
    item.seq = it->second->submitSeq.fetch_add(
        1, std::memory_order_relaxed);
    item.sample = s;
    if (!queues_[shardOf(tenant)]->push(item)) {
        samples_dropped_.add(1);
        return false;
    }
    samples_enqueued_.add(1);
    return true;
}

TickReport
Service::tick()
{
    obs::Span span(obs::names::kServiceTickSpan, "service");
    obs::ScopedMs timer(tick_ms_);
    TickReport report;

    // Install a staged prior at the tick boundary; running sessions
    // keep the snapshot they pinned at admission.
    {
        const std::lock_guard<std::mutex> lock(pending_prior_mutex_);
        if (pending_prior_ != nullptr) {
            prior_ = std::move(pending_prior_);
            bases_ = std::move(pending_bases_);
            pending_prior_.reset();
            pending_bases_.reset();
            ++prior_version_;
            prior_refreshes_.add(1);
        }
    }

    const std::size_t nshards = queues_.size();
    // Shard-local tenant lists, in id order (the replay order).
    std::vector<std::vector<Session *>> shard_tenants(nshards);
    for (const auto &[id, sess] : sessions_)
        shard_tenants[shardOf(id)].push_back(sess.get());

    std::vector<std::vector<std::uint64_t>> shard_pending(nshards);
    std::vector<std::size_t> shard_windows(nshards, 0);
    std::vector<std::size_t> shard_dropped(nshards, 0);

    // Drain every shard in one parallel region. A shard exclusively
    // owns its tenants' sessions, so the loop bodies touch disjoint
    // state; sorting each batch by (tenant, seq) erases producer
    // interleaving, making the replay — and every schedule it
    // produces — independent of thread and shard count.
    parallel::parallelFor(pool_, nshards, [&](std::size_t s) {
        std::vector<InboundSample> batch;
        InboundSample item;
        while (queues_[s]->pop(item))
            batch.push_back(item);
        std::sort(batch.begin(), batch.end(),
                  [](const InboundSample &a, const InboundSample &b) {
                      return std::tie(a.tenant, a.seq) <
                             std::tie(b.tenant, b.seq);
                  });
        const std::vector<Session *> &tenants = shard_tenants[s];
        for (const InboundSample &in : batch) {
            const auto pos = std::lower_bound(
                tenants.begin(), tenants.end(), in.tenant,
                [](const Session *t, std::uint64_t id) {
                    return t->id < id;
                });
            if (pos == tenants.end() || (*pos)->id != in.tenant) {
                ++shard_dropped[s]; // Tenant closed since submit.
                continue;
            }
            (*pos)->controller->recordMeasurement(in.sample);
            ++(*pos)->windows;
            ++shard_windows[s];
        }
        for (const Session *sess : tenants)
            if (sess->controller->fitPending())
                shard_pending[s].push_back(sess->id);
    });

    std::vector<std::uint64_t> pending;
    for (std::size_t s = 0; s < nshards; ++s) {
        report.windowsProcessed += shard_windows[s];
        samples_dropped_.add(shard_dropped[s]);
        pending.insert(pending.end(), shard_pending[s].begin(),
                       shard_pending[s].end());
    }
    windows_processed_.add(report.windowsProcessed);
    // Fit order must not depend on the shard layout either.
    std::sort(pending.begin(), pending.end());

    runDeferredFits(pending, report);
    if (options_.globalPlanning)
        globalReplan(report);
    ticks_run_.add(1);
    return report;
}

void
Service::globalReplan(TickReport &report)
{
    // Gather demands in id order (sessions_ is an ordered map), so
    // the plan is a pure function of the session table — independent
    // of shard layout, thread count and producer interleaving.
    std::vector<optimizer::TenantDemand> demands;
    std::vector<std::uint64_t> planned;
    for (const auto &[id, sess] : sessions_) {
        const runtime::EnergyController &ctl = *sess->controller;
        if (!ctl.hasEstimates())
            continue; // Still probing: nothing to plan from yet.
        optimizer::TenantDemand d;
        d.performance = ctl.performanceEstimate();
        d.power = ctl.powerEstimate();
        const double deadline =
            sess->config.deadlineSeconds > 0.0
                ? sess->config.deadlineSeconds
                : kPlanningHorizonSeconds;
        d.constraint.deadlineSeconds = deadline;
        d.constraint.work = sess->config.targetRate * deadline;
        demands.push_back(std::move(d));
        planned.push_back(id);
    }

    global_tenants_ = std::move(planned);
    if (global_tenants_.empty()) {
        global_plan_ = optimizer::GlobalSchedule{};
        return;
    }
    optimizer::GlobalPlanOptions popts;
    popts.powerCapWatts = options_.powerCapWatts;
    global_plan_ = optimizer::planGlobalSchedule(
        demands, options_.controller.idlePower, popts);
    global_replans_.add(1);
    if (!global_plan_.feasible)
        global_infeasible_.add(1);
    report.tenantsPlanned = global_tenants_.size();
    report.globalFeasible = global_plan_.feasible;
    report.globalPredictedEnergy = global_plan_.predictedEnergy;
}

const optimizer::Schedule *
Service::tenantSchedule(std::uint64_t tenant) const
{
    const auto it = std::lower_bound(global_tenants_.begin(),
                                     global_tenants_.end(), tenant);
    if (it == global_tenants_.end() || *it != tenant)
        return nullptr;
    const std::size_t idx = static_cast<std::size_t>(
        it - global_tenants_.begin());
    return &global_plan_.perTenant[idx];
}

void
Service::runDeferredFits(const std::vector<std::uint64_t> &pending,
                         TickReport &report)
{
    if (pending.empty())
        return;
    obs::Span span(obs::names::kServiceFitSpan, "service");
    span.arg("tenants", static_cast<double>(pending.size()));

    // Cache pass: every fit, a refit included, is a pure function of
    // the key, so a hit hands the tenant a previously computed result
    // — bitwise what its own fit would have produced.
    struct Job
    {
        Session *sess = nullptr;
        FitCacheKey key;
    };
    std::vector<Job> jobs;
    jobs.reserve(pending.size());
    for (const std::uint64_t id : pending) {
        Session &sess = *sessions_.at(id);
        runtime::EnergyController &ctl = *sess.controller;
        FitCacheKey key;
        key.appId = sess.config.appId;
        key.priorVersion = sess.priorVersion;
        key.obsHash =
            ctl.observations().contentHash(space_.size());
        if (const CachedFit *hit = cache_.lookup(key)) {
            ctl.applyExternalFit(hit->perfEstimate, hit->powerEstimate,
                                 hit->perfFit, hit->powerFit);
            ++report.cacheHits;
            ++report.tenantsFitted;
            cache_hits_.add(1);
            continue;
        }
        cache_misses_.add(1);
        jobs.push_back(Job{&sess, std::move(key)});
    }
    if (jobs.empty())
        return;

    // Every parked tenant's two fits share one parallel region on the
    // pool instead of N tiny ones. Each is the tenant's own controller
    // fit, which only reads the controller, so the installs below
    // reproduce the inline schedule bit for bit.
    std::vector<estimators::MetricEstimate> results(2 * jobs.size());
    std::vector<estimators::LeoFit> fits(2 * jobs.size());
    parallel::parallelFor(pool_, results.size(), [&](std::size_t k) {
        results[k] = jobs[k / 2].sess->controller->estimateFor(
            k % 2 == 0 ? estimators::Metric::Performance
                       : estimators::Metric::Power,
            /*ws=*/nullptr, &fits[k]);
    });

    for (std::size_t i = 0; i < jobs.size(); ++i) {
        estimators::MetricEstimate &perf = results[2 * i];
        estimators::MetricEstimate &power = results[2 * i + 1];
        // Cache only reliable fits: an unreliable fit is a
        // degradation artifact nobody should inherit.
        if (perf.reliable && power.reliable) {
            CachedFit entry;
            entry.perfEstimate = perf;
            entry.powerEstimate = power;
            entry.perfFit = fits[2 * i];
            entry.powerFit = fits[2 * i + 1];
            cache_.insert(jobs[i].key, std::move(entry));
        }
        jobs[i].sess->controller->applyExternalFit(
            std::move(perf), std::move(power), std::move(fits[2 * i]),
            std::move(fits[2 * i + 1]));
        report.fitsBatched += 2;
        ++report.tenantsFitted;
    }
    fits_batched_.add(2 * jobs.size());
    if (cache_.evictions() > evictions_seen_) {
        cache_evictions_.add(cache_.evictions() - evictions_seen_);
        evictions_seen_ = cache_.evictions();
    }
}

void
Service::refreshPrior(
    std::shared_ptr<const telemetry::ProfileStore> prior)
{
    require(prior != nullptr, "Service: null refreshed prior");
    require(prior->spaceSize() == space_.size() ||
                prior->numApplications() == 0,
            "Service: refreshed prior/space size mismatch");
    std::shared_ptr<const estimators::PriorBases> bases =
        estimators::PriorBases::build(*prior);
    const std::lock_guard<std::mutex> lock(pending_prior_mutex_);
    pending_prior_ = std::move(prior);
    pending_bases_ = std::move(bases);
}

void
Service::saveSnapshot(linalg::ByteWriter &w)
{
    obs::Span span(obs::names::kServiceSnapshotSpan, "service");
    const std::size_t start = w.bytes().size();
    // Reserve the previous snapshot's size up front, so a repeat save
    // lands in one allocation.
    w.reserve(last_snapshot_bytes_);
    // Each prior version a session pins, plus the live one, travels
    // once, ahead of the sessions that name it. Sessions on one
    // version share one store, so the first pointer seen is the one.
    std::map<std::uint64_t, const telemetry::ProfileStore *> priors;
    priors.emplace(prior_version_, prior_.get());
    for (const auto &[id, sess] : sessions_)
        priors.emplace(sess->priorVersion, sess->prior.get());

    w.u32(kSnapshotVersion);
    w.u64(space_.size());
    w.u64(options_.shards);
    w.u64(next_id_);
    w.u64(prior_version_);
    w.u64(priors.size());
    for (const auto &[version, store] : priors) {
        w.u64(version);
        w.u64(store->numApplications());
        for (const telemetry::ApplicationRecord &rec : store->records())
            writeRecord(w, rec);
    }
    w.u64(sessions_.size());
    for (const auto &[id, sess] : sessions_) {
        w.u64(id);
        w.str(sess->config.appId);
        w.f64(sess->config.targetRate);
        w.f64(sess->config.deadlineSeconds);
        w.u64(sess->config.seed);
        w.u64(sess->submitSeq.load(std::memory_order_relaxed));
        w.u64(sess->windows);
        w.u64(sess->priorVersion);
        // The mt19937_64 stream operators round-trip the engine
        // state exactly (decimal integers), so probe selection
        // resumes on the same draw.
        std::ostringstream engine;
        engine << sess->rng.engine();
        w.str(engine.str());
        sess->controller->saveState(w);
    }
    // Undrained queue contents ride along so no submitted sample is
    // lost across the snapshot; they are re-enqueued afterwards so
    // the live service keeps serving.
    std::vector<InboundSample> queued;
    InboundSample item;
    for (const auto &q : queues_)
        while (q->pop(item))
            queued.push_back(item);
    std::sort(queued.begin(), queued.end(),
              [](const InboundSample &a, const InboundSample &b) {
                  return std::tie(a.tenant, a.seq) <
                         std::tie(b.tenant, b.seq);
              });
    w.u64(queued.size());
    for (const InboundSample &in : queued) {
        w.u64(in.tenant);
        w.u64(in.seq);
        w.u64(in.sample.configIndex);
        w.f64(in.sample.heartbeatRate);
        w.f64(in.sample.powerWatts);
    }
    for (const InboundSample &in : queued)
        queues_[shardOf(in.tenant)]->push(in);
    snapshots_saved_.add(1);
    last_snapshot_bytes_ = w.bytes().size() - start;
    span.arg("bytes", static_cast<double>(last_snapshot_bytes_));
    span.arg("sessions", static_cast<double>(sessions_.size()));
    span.arg("versions", static_cast<double>(priors.size()));
}

bool
Service::restoreSnapshot(linalg::ByteReader &r)
{
    obs::Span span(obs::names::kServiceRestoreSpan, "service");
    const std::size_t start = r.position();
    sessions_.clear();
    cache_ = FitCache(options_.fitCacheCapacity);
    evictions_seen_ = 0;
    // The fleet plan is derived state: it is not in the snapshot and
    // the next tick() after a successful restore reproduces it.
    global_plan_ = optimizer::GlobalSchedule{};
    global_tenants_.clear();
    InboundSample drain;
    const auto fail = [&] {
        r.fail();
        sessions_.clear();
        for (const auto &q : queues_)
            while (q->pop(drain)) {
            }
        tenants_active_.set(0.0);
        span.arg("sessions", 0.0);
        return false;
    };
    for (const auto &q : queues_)
        while (q->pop(drain)) {
        }

    if (r.u32() != kSnapshotVersion || r.u64() != space_.size() ||
        r.u64() != options_.shards)
        return fail();
    const std::uint64_t next_id = r.u64();
    const std::uint64_t live = r.u64();

    // The prior table, in increasing version order: one profile store
    // and one set of bases per version. A version no session pins and
    // that is not the live one is never written, so it is rejected
    // like any other encoding saveSnapshot would not produce.
    struct SavedPrior
    {
        std::shared_ptr<const telemetry::ProfileStore> store;
        std::shared_ptr<const estimators::PriorBases> bases;
        bool pinned = false;
    };
    std::map<std::uint64_t, SavedPrior> priors;
    const std::uint64_t versions = r.u64();
    for (std::uint64_t i = 0; i < versions && r.ok(); ++i) {
        const std::uint64_t version = r.u64();
        auto store = readProfileStore(r, space_.size());
        if (!store ||
            (!priors.empty() && version <= priors.rbegin()->first))
            return fail();
        auto bases = estimators::PriorBases::build(*store);
        priors.emplace(version, SavedPrior{std::move(store),
                                           std::move(bases), false});
    }
    const auto live_prior = priors.find(live);
    if (!r.ok() || live_prior == priors.end())
        return fail();
    live_prior->second.pinned = true;

    const std::size_t count = static_cast<std::size_t>(r.u64());
    for (std::size_t i = 0; i < count && r.ok(); ++i) {
        const std::uint64_t id = r.u64();
        TenantConfig config;
        config.appId = r.str();
        config.targetRate = r.f64();
        config.deadlineSeconds = r.f64();
        config.seed = r.u64();
        // Ids are saved ascending and below the next id to hand out.
        if (!r.ok() || !(config.targetRate > 0.0) ||
            !std::isfinite(config.targetRate) ||
            !(config.deadlineSeconds >= 0.0) ||
            !std::isfinite(config.deadlineSeconds) || id >= next_id ||
            (!sessions_.empty() && id <= sessions_.rbegin()->first))
            return fail();
        auto sess = std::make_unique<Session>(id, config);
        sess->submitSeq.store(r.u64(), std::memory_order_relaxed);
        sess->windows = r.u64();
        sess->priorVersion = r.u64();
        const auto pinned = priors.find(sess->priorVersion);
        if (pinned == priors.end())
            return fail();
        pinned->second.pinned = true;
        // The engine text must be exactly what the engine writes back.
        const std::string text = r.str();
        std::istringstream engine(text);
        engine >> sess->rng.engine();
        std::ostringstream again;
        again << sess->rng.engine();
        if (engine.fail() || again.str() != text)
            return fail();
        sess->prior = pinned->second.store;
        sess->bases = pinned->second.bases;
        sess->controller = makeController(*sess);
        // A session that held fits is refitted on its pinned bases
        // and must reproduce its saved estimates bit for bit.
        if (!sess->controller->restoreState(r))
            return fail();
        sessions_[id] = std::move(sess);
    }
    // Queued samples are saved in increasing (tenant, seq) order, and
    // every one must fit its shard queue again.
    const std::size_t queued = static_cast<std::size_t>(r.u64());
    bool have_prev = false;
    InboundSample prev;
    for (std::size_t i = 0; i < queued && r.ok(); ++i) {
        InboundSample in;
        in.tenant = r.u64();
        in.seq = r.u64();
        in.sample.configIndex = static_cast<std::size_t>(r.u64());
        in.sample.heartbeatRate = r.f64();
        in.sample.powerWatts = r.f64();
        if (!r.ok())
            break;
        if ((have_prev && std::tie(in.tenant, in.seq) <=
                              std::tie(prev.tenant, prev.seq)) ||
            !queues_[shardOf(in.tenant)]->push(in))
            return fail();
        prev = in;
        have_prev = true;
    }
    const bool all_pinned =
        std::all_of(priors.begin(), priors.end(),
                    [](const auto &p) { return p.second.pinned; });
    if (!r.ok() || !r.atEnd() || sessions_.size() != count ||
        !all_pinned)
        return fail();
    next_id_ = next_id;
    prior_version_ = live;
    prior_ = live_prior->second.store;
    bases_ = live_prior->second.bases;
    tenants_active_.set(static_cast<double>(sessions_.size()));
    snapshots_restored_.add(1);
    span.arg("bytes", static_cast<double>(r.position() - start));
    span.arg("sessions", static_cast<double>(sessions_.size()));
    span.arg("versions", static_cast<double>(priors.size()));
    return true;
}

} // namespace leo::service

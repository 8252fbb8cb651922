/**
 * @file
 * Workloads fleet_rolling and fleet_capped: the multi-tenant serving
 * core driven closed-loop, one control period at a time.
 *
 * Each period the benchmark closes the tenants whose lifetime ended,
 * admits new ones on a fixed schedule, asks every tenant for its next
 * configuration, measures it on the tenant's simulated application,
 * submits the sample and ticks the service. Admissions and closes are
 * staggered so every period carries the same mix of probing, fitting
 * and controlling tenants. Each tenant switches phase once, mid-life:
 * the benchmark hands it a model that is at least 1.5x faster at the
 * configuration it paces, so drift fires after exactly three windows
 * and the tenant refits warm a probe budget later. Knowing that
 * schedule, the benchmark predicts which tenants fit in which tick
 * and checks the prediction against every TickReport.
 *
 * The service does not expose a tenant's estimates, so the benchmark
 * scores a cold decision through a mirror: a controller of its own,
 * built like the service's (same prior, options, seed, deferred
 * fits), that receives the same configurations and samples. When the
 * mirror's probe plan completes, the benchmark fits the mirror's
 * observations itself, scores that fit, and hands it to the mirror.
 * From then on the mirror must pace exactly what the service paces,
 * so a score is only reported for a fit the service actually acted on.
 *
 * Everything runs on the calling thread: the estimator is serial and
 * the service's pool has no workers.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "common.hh"
#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "optimizer/schedule.hh"
#include "parallel/thread_pool.hh"
#include "replay.hh"
#include "runtime/controller.hh"
#include "service/service.hh"
#include "telemetry/meters.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace leo;

namespace
{

constexpr std::size_t kNone = ~std::size_t{0};
/** Set-ups (construction plus ramp) per run; setup_s is the median. */
constexpr int kSetups = 7;
/** Periods between a tenant and the later admission replaying it. */
constexpr std::size_t kReplayDistance = 8;
/** Deadline of the energy score in fleet_rolling, seconds. */
constexpr double kScoreDeadline = 10.0;
/** Held out of the shared prior; tenants run these applications. */
const char *const kTenantApps[] = {"x264", "kmeans", "swish",
                                   "bodytrack", "lud"};

/** The shape of one fleet workload. */
struct FleetSpec
{
    std::size_t lifetime = 0;     //!< Periods a tenant lives.
    std::size_t admitEvery = 1;   //!< Periods between admissions.
    std::size_t admitBatch = 1;   //!< Tenants per admission.
    std::size_t sampleBudget = 20;
    std::size_t switchAge = 0;    //!< Earliest phase-switch age.
    bool replayTenants = false;   //!< Some admissions replay a tenant.
    bool globalPlanning = false;
    double capFraction = 0.0;     //!< Of the power headroom; 0 = none.
    double demandLo = 0.1, demandHi = 0.9; //!< Fraction of peak rate.
    std::size_t refreshEvery = 0; //!< Periods between prior refreshes.
    std::size_t snapshotEvery = 0;
    std::size_t checkedSnapshots = 0; //!< Restore-checked snapshots.
    std::size_t prefixPeriods = 0; //!< Exact-count periods.
};

/** Benchmark-side view of one tenant. */
struct Tenant
{
    std::uint64_t id = 0;
    std::size_t slot = 0;
    std::size_t app = 0;   //!< Index into kTenantApps.
    std::size_t model = 0; //!< Suite model currently measured.
    std::size_t admitted = 0;
    std::uint64_t seed = 0;
    stats::Rng meas;
    double demand = 0.0;   //!< Fraction of the app's peak rate.
    double deadline = 0.0; //!< Global-planning deadline (0 = none).
    std::size_t epoch = 0; //!< Prior pinned at admission.
    std::size_t lastConfig = kNone;
    std::size_t coldDue = 0;
    std::size_t warmDue = kNone;
    std::size_t probeFrom = 0; //!< First period of the current probes.
    bool switched = false;
    telemetry::Observations probes;
    std::unique_ptr<estimators::LeoFit> coldPerf, coldPower;
    /** Mirror of the service's controller while a scored cold
     *  decision is in flight (null otherwise), and its probe RNG. */
    std::unique_ptr<runtime::EnergyController> mirror;
    stats::Rng mirrorRng;
};

/** Immutable inputs shared by every set-up of a run. */
struct World
{
    platform::Machine machine;
    platform::ConfigSpace space;
    std::vector<workloads::ApplicationModel> models; //!< Whole suite.
    std::vector<workloads::GroundTruth> truth;       //!< Whole suite.
    std::vector<std::size_t> tenantModel; //!< kTenantApps -> suite idx.
    estimators::LeoEstimator estimator;

    World()
        : space(platform::ConfigSpace::reducedFactorial(machine, 2, 2)),
          estimator(serialLeoOptions())
    {
        const auto names = workloads::suiteNames();
        for (const auto &profile : workloads::standardSuite()) {
            models.emplace_back(profile, machine);
            truth.push_back(
                workloads::computeGroundTruth(models.back(), space));
        }
        for (const char *app : kTenantApps)
            tenantModel.push_back(static_cast<std::size_t>(
                std::find(names.begin(), names.end(), app) -
                names.begin()));
    }

};

/** The shared prior without the tenant applications. */
telemetry::ProfileStore
collectPrior(const World &w, std::uint64_t seed)
{
    std::vector<workloads::ApplicationProfile> profiles;
    for (const auto &p : workloads::standardSuite())
        if (std::none_of(std::begin(kTenantApps), std::end(kTenantApps),
                         [&](const char *a) { return p.name == a; }))
            profiles.push_back(p);
    stats::Rng rng(seed);
    return telemetry::ProfileStore::collect(
        profiles, w.machine, w.space, telemetry::HeartbeatMonitor{},
        telemetry::WattsUpMeter{}, rng);
}

class Fleet
{
  public:
    Fleet(const Options &opt, const FleetSpec &spec, Report &report)
        : opt_(opt), spec_(spec), report_(report)
    {
    }

    void run();

  private:
    /** What one period did (for set-up determinism and metrics). */
    struct Period
    {
        double periodMs = 0.0; //!< Normalized by the host speed.
        double tickMs = 0.0;   //!< Normalized by the host speed.
        double wallMs = 0.0;   //!< The period's wall time.
        service::TickReport tick;
    };

    /** Fresh service + empty fleet. */
    void build();
    /** One control period. */
    Period period(bool measure);
    void admit(std::size_t slot, const Tenant *copy);
    void afterTick(const Period &p, bool measure,
                   const std::vector<std::size_t> &configs,
                   const std::vector<telemetry::Sample> &samples);
    /** The options of the service and of every restored copy. */
    service::ServiceOptions serviceOptions() const;
    void snapshot();
    void finish(const Samples &setup_s, const Samples &collect_ms);

    bool inPrefix() const
    {
        return period_ >= prefixStart_ &&
               period_ < prefixStart_ + spec_.prefixPeriods;
    }

    const Options &opt_;
    const FleetSpec &spec_;
    Report &report_;
    std::unique_ptr<World> world_;
    std::shared_ptr<const telemetry::ProfileStore> priors_[2];
    double idle_ = 0.0;
    double cap_ = optimizer::kNoPowerCap;
    const telemetry::HeartbeatMonitor monitor_;
    const telemetry::WattsUpMeter meter_;

    std::unique_ptr<parallel::ThreadPool> pool_;
    std::unique_ptr<service::Service> svc_;
    std::deque<Tenant> tenants_; // Admission (= id) order.
    std::size_t period_ = 0;
    std::size_t prefixStart_ = ~std::size_t{0};
    std::size_t epoch_ = 0;       //!< Prior installed in the service.
    bool refreshStaged_ = false;
    std::size_t snapshots_ = 0;
    Digest rampDigest_;

    // Measurements.
    BlockTail periodMs_, decideMs_;
    Samples redecideMs_, snapshotMs_;
    Samples wallPeriodMs_;
    HostSpeed speed_;
    std::uint64_t admitted_ = 0, switched_ = 0;
    Samples periodTracedMs_, periodUntracedMs_;
    Samples perfAcc_, powerAcc_, energy_;
    std::uint64_t prefixFits_ = 0, prefixTicks_ = 0;
    std::uint64_t prefixHits_ = 0, prefixColdDecisions_ = 0;
    std::uint64_t prefixWarmDecisions_ = 0;
    std::uint64_t snapshotBytes_ = 0;
    std::uint64_t capBinds_ = 0, plannedTicks_ = 0, slowPeriods_ = 0;
    double submitUs_ = 0.0;
    std::uint64_t submitsTraced_ = 0;
    Counters prefixBegin_, prefixCounters_;
    /** Peak RSS once the set-ups and the fixed prefix are done, MB. */
    double prefixRssMb_ = 0.0;
    ReplayStats replay_;
    Trace trace_;
};

service::ServiceOptions
Fleet::serviceOptions() const
{
    service::ServiceOptions so;
    so.controller.sampleBudget = spec_.sampleBudget;
    so.controller.idlePower = idle_;
    so.globalPlanning = spec_.globalPlanning;
    so.powerCapWatts = cap_;
    return so;
}

void
Fleet::build()
{
    svc_.reset();
    tenants_.clear();
    pool_ = std::make_unique<parallel::ThreadPool>(0);
    svc_ = std::make_unique<service::Service>(
        world_->space, world_->estimator, priors_[0], *pool_,
        serviceOptions());
    period_ = 0;
    epoch_ = 0;
    refreshStaged_ = false;
    snapshots_ = 0;
    admitted_ = switched_ = 0;
}

void
Fleet::admit(std::size_t slot, const Tenant *copy)
{
    const World &w = *world_;
    Tenant t;
    t.slot = slot;
    t.admitted = period_;
    t.epoch = epoch_;
    if (copy != nullptr) {
        // Same app, probe seed and measurement stream as an earlier
        // tenant: its cold fit is a fit-cache hit.
        t.app = copy->app;
        t.seed = copy->seed;
        t.demand = copy->demand;
    } else {
        stats::Rng pick(mix(opt_.seed, 20, period_, slot));
        t.app = static_cast<std::size_t>(
            pick.uniformInt(0, std::size(kTenantApps) - 1));
        t.seed = mix(opt_.seed, 21, period_, slot);
        t.demand = pick.uniform(spec_.demandLo, spec_.demandHi);
    }
    t.model = w.tenantModel[t.app];
    t.meas = stats::Rng(mix(t.seed, 22));
    if (spec_.globalPlanning)
        t.deadline = static_cast<double>(slot % 4 + 1);
    t.coldDue = period_ + spec_.sampleBudget - 1;
    t.probeFrom = period_;

    service::TenantConfig cfg;
    cfg.appId = kTenantApps[t.app];
    cfg.targetRate = t.demand * peakRate(w.truth[t.model]);
    cfg.deadlineSeconds = t.deadline;
    cfg.seed = t.seed;
    const auto id = svc_->admit(cfg);
    report_.op(id.has_value(), "admit refused");
    if (!id.has_value())
        return;
    t.id = *id;
    // Cold decisions that land in the prefix of the measured run are
    // scored: mirror the tenant from admission on, the way the
    // service builds its controller.
    if (period_ >= prefixStart_ &&
        t.coldDue < prefixStart_ + spec_.prefixPeriods) {
        runtime::ControllerOptions copts = serviceOptions().controller;
        copts.targetRate = cfg.targetRate;
        copts.deferFits = true;
        t.mirror = std::make_unique<runtime::EnergyController>(
            w.space, &w.estimator, *priors_[epoch_ % 2], copts);
        t.mirrorRng = stats::Rng(t.seed);
    }
    tenants_.push_back(std::move(t));
    ++admitted_;
}

Fleet::Period
Fleet::period(bool measure)
{
    const World &w = *world_;
    Period out;

    // Close expired tenants, then admit on the staggered schedule.
    while (!tenants_.empty() &&
           period_ - tenants_.front().admitted >= spec_.lifetime) {
        svc_->close(tenants_.front().id);
        tenants_.pop_front();
    }
    if (period_ % spec_.admitEvery == 0) {
        const std::size_t batch = period_ / spec_.admitEvery;
        for (std::size_t k = 0; k < spec_.admitBatch; ++k) {
            const std::size_t slot = batch * spec_.admitBatch + k;
            const Tenant *copy = nullptr;
            // Every other batch, its last admission replays the first
            // admission of an earlier batch from the same prior epoch.
            if (spec_.replayTenants && k + 1 == spec_.admitBatch &&
                batch % 2 == 1) {
                for (const Tenant &t : tenants_)
                    if (t.admitted + kReplayDistance == period_ &&
                        t.epoch == epoch_) {
                        copy = &t;
                        break;
                    }
            }
            admit(slot, copy);
        }
    }

    // The control period: every tenant's nextConfig() and submit(),
    // then tick(). Measuring is the load generator and sits between
    // the two timed loops.
    std::vector<std::size_t> configs(tenants_.size());
    std::vector<telemetry::Sample> samples(tenants_.size());
    double t0 = nowUs();
    {
        Trace::Scope s(trace_, "bench.next_configs");
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            configs[i] = svc_->nextConfig(tenants_[i].id);
    }
    double busy = nowUs() - t0;
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        Tenant &t = tenants_[i];
        const std::size_t c = configs[i];
        const bool controlling = period_ > t.coldDue &&
                                 t.warmDue == kNone && !t.switched;
        if (controlling && period_ >= t.admitted + spec_.switchAge &&
            c == t.lastConfig &&
            period_ + 2 + spec_.sampleBudget <
                t.admitted + spec_.lifetime) {
            // Phase change: a model at least kSwitchRatio faster at
            // the paced configuration, so the drift test fires on
            // this and the next two windows and the tenant re-probes.
            stats::Rng pick(mix(t.seed, 23));
            const std::size_t offset =
                pick.uniformInt(1, w.models.size() - 1);
            for (std::size_t j = 0; j + 1 < w.models.size(); ++j) {
                const std::size_t m =
                    (t.model + offset + j) % w.models.size();
                if (m != t.model &&
                    w.truth[m].performance[c] >=
                        kSwitchRatio * w.truth[t.model].performance[c]) {
                    t.model = m;
                    t.switched = true;
                    ++switched_;
                    t.probeFrom = period_ + 3;
                    t.warmDue = period_ + 2 + spec_.sampleBudget;
                    break;
                }
            }
        }
        t.lastConfig = c;
        if (period_ == t.probeFrom)
            t.probes = telemetry::Observations{};
        const auto &ra = w.space.assignment(c);
        samples[i] = {c,
                      monitor_.measureRate(w.models[t.model], ra, t.meas),
                      meter_.read(w.models[t.model], ra, t.meas)};
        if (period_ >= t.probeFrom &&
            (period_ <= t.coldDue ||
             (t.warmDue != kNone && period_ <= t.warmDue)))
            t.probes.push(samples[i]);
    }
    t0 = nowUs();
    {
        Trace::Scope s(trace_, "bench.submits");
        for (std::size_t i = 0; i < tenants_.size(); ++i)
            report_.op(svc_->submit(tenants_[i].id, samples[i]),
                       "submit refused");
    }
    const double submit_us = nowUs() - t0;
    busy += submit_us;
    if (trace_.on()) {
        submitUs_ += submit_us;
        submitsTraced_ += tenants_.size();
    }
    t0 = nowUs();
    {
        Trace::Scope s(trace_, "bench.tick");
        out.tick = svc_->tick();
    }
    const double tick_ms = (nowUs() - t0) / 1e3;
    out.wallMs = busy / 1e3 + tick_ms;
    speed_.measure();
    out.tickMs = tick_ms / speed_.factor();
    out.periodMs = out.wallMs / speed_.factor();

    // A refresh staged after the previous tick was installed by this
    // one; admissions from here on pin the new prior.
    if (refreshStaged_) {
        ++epoch_;
        refreshStaged_ = false;
    }
    afterTick(out, measure, configs, samples);
    if (spec_.refreshEvery &&
        period_ % spec_.refreshEvery == spec_.refreshEvery - 1) {
        svc_->refreshPrior(priors_[(epoch_ + 1) % 2]);
        refreshStaged_ = true;
    }
    if (measure && spec_.snapshotEvery &&
        period_ % spec_.snapshotEvery == spec_.snapshotEvery - 1)
        snapshot();
    ++period_;
    return out;
}

void
Fleet::afterTick(const Period &p, bool measure,
                 const std::vector<std::size_t> &configs,
                 const std::vector<telemetry::Sample> &samples)
{
    const World &w = *world_;
    const bool prefix = measure && inPrefix();

    // Step every mirror through this period: the configuration the
    // service handed out, then the sample it was given. A mirror stops
    // at the tenant's phase change.
    trace_.harvest();
    for (std::size_t i = 0; i < tenants_.size(); ++i) {
        Tenant &t = tenants_[i];
        if (t.mirror == nullptr)
            continue;
        if (t.mirror->nextConfig(t.mirrorRng) != configs[i])
            report_.fail(t.mirror->hasEstimates()
                             ? "service paces other than its replayed fit"
                             : "service probes other than its mirror");
        if (t.switched)
            t.mirror.reset();
        else
            t.mirror->recordMeasurement(samples[i]);
    }
    trace_.discardProgramSpans();

    std::size_t cold = 0, warm = 0;
    for (Tenant &t : tenants_) {
        const bool is_cold = t.coldDue == period_;
        const bool is_warm = t.warmDue == period_;
        if (!is_cold && !is_warm)
            continue;
        (is_cold ? cold : warm) += 1;
        if (measure && is_cold)
            decideMs_.add(period_ - prefixStart_, p.tickMs);
        else if (measure)
            redecideMs_.add(p.tickMs);
        // A mirrored cold fit is scored; traced runs also replay every
        // other fit whose warm start they hold, for the layer times.
        const bool scored = is_cold && t.mirror != nullptr;
        const bool replay =
            scored ||
            (opt_.trace && measure && (is_cold || t.coldPerf != nullptr));
        if (!replay)
            continue;
        if (scored && !t.mirror->fitPending())
            report_.fail("service fitted a tenant before its mirror's "
                         "probe plan completed");
        // Replay the fit's exact inputs: the pinned prior and the
        // probes since the tenant last began sampling, as the mirror
        // recorded them when there is one.
        trace_.harvest();
        const Replay r = replayDecision(
            w.estimator, w.space, *priors_[t.epoch % 2],
            scored ? t.mirror->observations() : t.probes,
            is_warm ? t.coldPerf.get() : nullptr,
            is_warm ? t.coldPower.get() : nullptr, idle_, prefix,
            replay_);
        if (scored)
            t.mirror->applyExternalFit(r.perf, r.power, r.perfFit,
                                       r.powerFit);
        trace_.discardProgramSpans();
        if (is_cold && opt_.trace) {
            t.coldPerf = std::make_unique<estimators::LeoFit>(r.perfFit);
            t.coldPower =
                std::make_unique<estimators::LeoFit>(r.powerFit);
        }
        if (!scored)
            continue;
        const workloads::GroundTruth &truth = w.truth[t.model];
        const double rate = t.demand * peakRate(truth);
        Quality q = scoreEstimates(r.perf.values, r.power.values, truth,
                                   idle_, rate * kScoreDeadline,
                                   kScoreDeadline);
        report_.op(q.finite && r.perf.reliable && r.power.reliable,
                   "fit fell back or went non-finite");
        if (spec_.globalPlanning) {
            // The tenant's slice of the fleet plan, run under the
            // guard on its true behavior.
            const optimizer::Schedule *slice =
                svc_->tenantSchedule(t.id);
            report_.op(slice != nullptr,
                       "tenant missing from the fleet plan");
            if (slice == nullptr)
                continue;
            const optimizer::PerformanceConstraint c{rate * t.deadline,
                                                     t.deadline};
            const double best =
                optimizer::planMinimalEnergy(truth.performance,
                                             truth.power, idle_, c)
                    .predictedEnergy;
            q.energyRatio = optimizer::executeScheduleGuarded(
                                *slice, truth.performance, truth.power,
                                idle_, c)
                                .energyJoules /
                            best;
        }
        perfAcc_.add(q.perfAccuracy);
        powerAcc_.add(q.powerAccuracy);
        energy_.add(q.energyRatio);
    }

    // The tick must have fitted exactly the tenants the schedule
    // predicts; an extra fit is a fallback re-probe, a missing one a
    // fit that never ran.
    const bool fits_ok = p.tick.tenantsFitted == cold + warm;
    bool plan_ok = true;
    if (spec_.globalPlanning && p.tick.tenantsPlanned > 0) {
        plan_ok = p.tick.globalFeasible;
        const optimizer::GlobalSchedule &plan = svc_->globalPlan();
        double prev = 0.0;
        bool binds = false;
        for (const auto &iv : plan.intervals) {
            const double span = iv.endSeconds - prev;
            prev = iv.endSeconds;
            if (span <= 0.0)
                continue;
            const double avg =
                idle_ + (iv.activeEnergyJoules - idle_ * iv.busySeconds) /
                            span;
            if (plan.feasible && avg > cap_ * (1.0 + 1e-9)) {
                report_.fail("fleet plan exceeds the power cap");
                plan_ok = false;
            }
            binds = binds || avg >= cap_ * (1.0 - 1e-6);
        }
        if (measure) {
            ++plannedTicks_;
            capBinds_ += binds ? 1 : 0;
        }
    }
    report_.op(fits_ok, "tick fitted other tenants than scheduled");
    if (spec_.globalPlanning)
        report_.op(plan_ok, "fleet plan infeasible or over the cap");
    if (!measure) {
        rampDigest_.add(static_cast<double>(p.tick.windowsProcessed));
        rampDigest_.add(static_cast<double>(p.tick.fitsBatched));
        rampDigest_.add(static_cast<double>(p.tick.cacheHits));
        rampDigest_.add(static_cast<double>(p.tick.tenantsFitted));
        rampDigest_.add(p.tick.globalPredictedEnergy);
    }
    if (prefix) {
        prefixFits_ += p.tick.fitsBatched;
        ++prefixTicks_;
        prefixHits_ += p.tick.cacheHits;
        prefixColdDecisions_ += cold;
        prefixWarmDecisions_ += warm;
    }
}

void
Fleet::snapshot()
{
    linalg::ByteWriter wr;
    const double t0 = nowUs();
    {
        Trace::Scope s(trace_, "bench.snapshot");
        svc_->saveSnapshot(wr);
    }
    snapshotMs_.add((nowUs() - t0) / 1e3 / speed_.factor());
    if (snapshotBytes_ == 0 && inPrefix())
        snapshotBytes_ = wr.bytes().size();
    if (snapshots_++ >= spec_.checkedSnapshots)
        return;
    // A fresh service restored from the blob must hand every tenant
    // the same next configuration, bit for bit.
    trace_.harvest();
    parallel::ThreadPool pool(0);
    service::Service restored(world_->space, world_->estimator,
                              priors_[epoch_ % 2], pool,
                              serviceOptions());
    linalg::ByteReader rd(wr.bytes());
    bool same = restored.restoreSnapshot(rd) &&
                restored.activeTenants() == tenants_.size();
    for (std::size_t i = 0; same && i < tenants_.size(); ++i)
        same = restored.nextConfig(tenants_[i].id) ==
               svc_->nextConfig(tenants_[i].id);
    trace_.discardProgramSpans();
    report_.op(same, "snapshot restore diverged");
    if (!same)
        report_.fail("restored service paces a tenant differently");
}

void
Fleet::run()
{
    world_ = std::make_unique<World>();
    idle_ = world_->machine.spec().idleSystemPowerW;
    if (spec_.capFraction > 0.0) {
        double peak = idle_;
        for (const std::size_t m : world_->tenantModel)
            for (std::size_t c = 0; c < world_->space.size(); ++c)
                peak = std::max(peak, world_->truth[m].power[c]);
        cap_ = idle_ + spec_.capFraction * (peak - idle_);
    }

    // Set-up, several times: collect the prior (and the alternate the
    // refreshes swap in), build the service and ramp an empty fleet
    // to its steady size. Every set-up must replay identically.
    Samples setup_s, collect_ms;
    std::uint64_t first = 0;
    for (int k = 0; k < kSetups; ++k) {
        speed_.measure();
        const double t0 = nowUs();
        auto prior = std::make_shared<const telemetry::ProfileStore>(
            collectPrior(*world_, mix(opt_.seed, 10)));
        collect_ms.add((nowUs() - t0) / 1e3);
        priors_[0] = std::move(prior);
        priors_[1] = std::make_shared<const telemetry::ProfileStore>(
            collectPrior(*world_, mix(opt_.seed, 11)));
        build();
        rampDigest_ = Digest{};
        while (period_ < spec_.lifetime)
            period(false);
        const double wall_s = (nowUs() - t0) / 1e6;
        speed_.measure();
        setup_s.add(wall_s / speed_.factor());
        if (k == 0)
            first = rampDigest_.value();
        else if (rampDigest_.value() != first)
            report_.fail("set-ups ramped the fleet differently");
    }

    prefixStart_ = period_;
    prefixBegin_ = Counters::read();
    const double start = nowUs();
    for (;;) {
        if (period_ == prefixStart_ + spec_.prefixPeriods) {
            prefixCounters_ =
                Counters::read() - prefixBegin_ - replay_.replayed;
            prefixRssMb_ = peakRssMb();
        }
        const double elapsed = (nowUs() - start) / 1e6;
        if (!inPrefix() && elapsed >= opt_.seconds)
            break;
        if (opt_.trace)
            trace_.follow(elapsed, opt_.seconds);
        const std::size_t unit = period_ - prefixStart_;
        const Period p = period(true);
        periodMs_.add(unit, p.periodMs);
        wallPeriodMs_.add(p.wallMs);
        slowPeriods_ += p.wallMs > 100.0 ? 1 : 0;
        if (opt_.trace)
            (trace_.on() ? periodTracedMs_ : periodUntracedMs_)
                .add(p.periodMs);
        if (trace_.on())
            trace_.harvest();
    }
    if (trace_.on())
        trace_.stop();
    finish(setup_s, collect_ms);
}

void
Fleet::finish(const Samples &setup_s, const Samples &collect_ms)
{
    const std::size_t periods = periodMs_.all().size();
    report_.note("tenants admitted " + std::to_string(admitted_) +
                 ", phase-switched " + std::to_string(switched_));
    report_.note("fleet: " + std::to_string(tenants_.size()) +
                 " tenants, " + std::to_string(periods) +
                 " periods measured, " + std::to_string(slowPeriods_) +
                 " over 100 ms wall (longest " +
                 std::to_string(wallPeriodMs_.quantile(1.0)) + " ms)");
    if (spec_.globalPlanning)
        report_.note("power cap " + std::to_string(cap_) +
                     " W binds in " + std::to_string(capBinds_) + " of " +
                     std::to_string(plannedTicks_) + " planned ticks");
    report_.note("host speed factor p50 " +
                 std::to_string(speed_.all().quantile(0.5)) + " over " +
                 std::to_string(speed_.all().size()) +
                 " kernel runs; wall-clock period p50 " +
                 std::to_string(wallPeriodMs_.quantile(0.5)) + " ms");
    const double energy = energy_.mean();
    const double perf_acc = perfAcc_.mean();
    const double power_acc = powerAcc_.mean();
    for (const double v :
         {energy, perf_acc, power_acc,
          static_cast<double>(perfAcc_.size())})
        report_.digest(v);
    if (!opt_.trace) {
        report_.add("setup_s", setup_s.quantile(0.5), "s",
                    setup_s.size());
        report_.add("success_ratio", report_.successRatio(), "ratio",
                    report_.attempted());
        report_.add("peak_rss_mb", prefixRssMb_, "MB", 1);
        report_.add("decide_p50_ms", decideMs_.all().quantile(0.5), "ms",
                    decideMs_.all().size());
        report_.add("decide_p95_ms", decideMs_.p95(periods), "ms",
                    decideMs_.all().size());
        report_.add("redecide_p50_ms", redecideMs_.quantile(0.5), "ms",
                    redecideMs_.size());
        report_.add("energy_over_optimal", energy, "ratio",
                    energy_.size());
        report_.add("perf_accuracy", perf_acc, "ratio", perfAcc_.size());
        report_.add("power_accuracy", power_acc, "ratio",
                    powerAcc_.size());
        report_.add("tick_p50_ms", periodMs_.all().quantile(0.5), "ms",
                    periods);
        report_.add("tick_p95_ms", periodMs_.p95(periods), "ms", periods);
        report_.add("snapshot_ms", snapshotMs_.quantile(0.5), "ms",
                    snapshotMs_.size());
        return;
    }

    const auto per = [](double total, std::uint64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    const Trace::Stat &tick = trace_.stat("bench.tick");
    const Trace::Stat &lp = trace_.stat(obs::names::kLpSolveSpan);
    const Trace::Stat &plan =
        trace_.stat(obs::names::kOptimizerGlobalPlanSpan);
    const Trace::Stat &window =
        trace_.stat(obs::names::kControllerWindowSpan);
    const Trace::Stat &fit = trace_.stat(obs::names::kServiceFitSpan);
    const Trace::Stat &drain = trace_.stat(obs::names::kServiceTickSpan);
    Layers layers;
    layers.set("telemetry.collect_ms", collect_ms.quantile(0.5),
               collect_ms.size());
    setReplayLayers(replay_, layers);
    for (const std::uint64_t v : {replay_.itersCold, replay_.fitsCold,
                                  replay_.itersWarm, replay_.fitsWarm})
        report_.digest(static_cast<double>(v));
    layers.set("estimators.fits", prefixCounters_.fits, 0);
    layers.set("estimators.ridge_retries", prefixCounters_.ridge, 0);
    layers.set("linalg.lp_solve_ms", per(lp.totalUs, lp.count) / 1e3,
               lp.count);
    layers.set("linalg.lp_pivots_per_solve",
               per(static_cast<double>(prefixCounters_.lpPivots),
                   prefixCounters_.lpSolves),
               prefixCounters_.lpSolves);
    layers.set("optimizer.global_plan_p50_ms",
               plan.durUs.quantile(0.5) / 1e3, plan.count);
    layers.set("optimizer.global_plan_p95_ms",
               plan.durUs.quantile(0.95) / 1e3, plan.count);
    layers.set("optimizer.global_infeasible",
               prefixCounters_.globalInfeasible, 0);
    layers.set("runtime.window_us", per(window.selfUs, window.count),
               window.count);
    layers.set("runtime.reestimations", prefixWarmDecisions_, 0);
    layers.set("runtime.fallbacks", replay_.unreliable, 0);
    layers.set("service.tick_ms", per(tick.totalUs, tick.count) / 1e3,
               tick.count);
    layers.set("service.submit_us", per(submitUs_, submitsTraced_),
               submitsTraced_);
    layers.set("service.fit_batch_ms", per(fit.totalUs, tick.count) / 1e3,
               fit.count);
    layers.set("service.drain_ms", per(drain.selfUs, tick.count) / 1e3,
               drain.count);
    layers.set("service.fits_per_tick",
               per(static_cast<double>(prefixFits_), prefixTicks_),
               prefixTicks_);
    layers.set("service.cache_hit_ratio",
               per(static_cast<double>(prefixHits_),
                   prefixColdDecisions_),
               prefixColdDecisions_);
    layers.set("service.snapshot_bytes",
               static_cast<double>(snapshotBytes_), 1);
    const double untraced = periodUntracedMs_.quantile(0.5);
    layers.set("obs.trace_overhead",
               untraced > 0.0 ? periodTracedMs_.quantile(0.5) / untraced
                              : 0.0,
               periodTracedMs_.size());
    for (const double v :
         {static_cast<double>(prefixCounters_.fits),
          static_cast<double>(prefixCounters_.ridge),
          static_cast<double>(prefixCounters_.lpPivots),
          static_cast<double>(prefixCounters_.lpSolves),
          static_cast<double>(prefixCounters_.globalInfeasible),
          static_cast<double>(prefixWarmDecisions_),
          static_cast<double>(replay_.unreliable),
          static_cast<double>(prefixFits_),
          static_cast<double>(prefixHits_),
          static_cast<double>(snapshotBytes_)})
        report_.digest(v);
    if (trace_.dropped() != 0)
        report_.fail("the program's tracer dropped events");
    layers.report(report_);
}

} // namespace

void
runFleetRolling(const Options &opt, Report &report)
{
    // About 160 tenants: two admitted and two closed every period,
    // each living 80 periods with a mid-life phase change.
    FleetSpec spec;
    spec.lifetime = 80;
    spec.admitEvery = 1;
    spec.admitBatch = 2;
    spec.sampleBudget = 20;
    spec.switchAge = 30;
    spec.replayTenants = true;
    spec.refreshEvery = 64;
    spec.snapshotEvery = 64;
    spec.checkedSnapshots = 2;
    // 128 periods of admissions whose cold decisions land in the
    // prefix: 256 scored decisions.
    spec.prefixPeriods = 147;
    Fleet(opt, spec, report).run();
}

void
runFleetCapped(const Options &opt, Report &report)
{
    // Eight slots, one tenant replaced every six periods, deadlines of
    // 1-4 s by slot, and a machine power cap planned every tick.
    FleetSpec spec;
    spec.lifetime = 48;
    spec.admitEvery = 6;
    spec.admitBatch = 1;
    spec.sampleBudget = 20;
    spec.switchAge = 24;
    spec.globalPlanning = true;
    spec.capFraction = 0.3;
    spec.demandLo = 0.05;
    spec.demandHi = 0.15;
    spec.snapshotEvery = 32;
    spec.checkedSnapshots = 4;
    spec.prefixPeriods = 84;
    Fleet(opt, spec, report).run();
}

} // namespace perfbench

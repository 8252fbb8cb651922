/**
 * @file
 * Workload paper_loop: the Section 6.7 single-application loop.
 *
 * Each episode gives one suite application a fresh EnergyController
 * (default ControllerOptions, so the Auto representation resolves to
 * the low-rank path) on the full 1024-configuration space with a
 * leave-one-out prior. The controller probes 20 configurations and
 * decides (two cold fits, frontier) and the benchmark plans the
 * decision with the hull walk. The application then switches to
 * another application's model whose rate at the paced configuration
 * is at least 1.5x higher, so the drift detector fires after its
 * three-window window and the controller re-probes and refits warm.
 * Episodes run seed-major over the 25 applications, so consecutive
 * decisions never share a prior. Meters and ground truth are the load
 * generator and sit outside every timed region.
 */

#include <memory>

#include "common.hh"
#include "estimators/leo.hh"
#include "linalg/serialize.hh"
#include "optimizer/schedule.hh"
#include "replay.hh"
#include "runtime/controller.hh"
#include "telemetry/meters.hh"
#include "workloads/suite.hh"

namespace perfbench
{

using namespace leo;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetups = 9;
/** Rounds (x 25 episodes) whose quality and counts must repeat
 *  exactly for a seed; the run always completes them. */
constexpr std::size_t kPrefixRounds = 6;
/** Deadline of the energy constraint, seconds. */
constexpr double kDeadline = 10.0;

/** Everything built before the first timed call. */
struct World
{
    platform::Machine machine;
    platform::ConfigSpace space;
    telemetry::ProfileStore store;
    std::vector<telemetry::ProfileStore> loo;
    std::vector<workloads::ApplicationModel> models;
    std::vector<workloads::GroundTruth> truth;
    estimators::LeoEstimator estimator;
    double collectMs = 0.0;

    explicit World(std::uint64_t seed)
        : space(platform::ConfigSpace::fullFactorial(machine)),
          store({}), estimator(serialLeoOptions())
    {
        stats::Rng rng(mix(seed, 1));
        const double t0 = nowUs();
        store = telemetry::ProfileStore::collect(
            workloads::standardSuite(), machine, space,
            telemetry::HeartbeatMonitor{}, telemetry::WattsUpMeter{},
            rng);
        collectMs = (nowUs() - t0) / 1e3;
        for (const auto &profile : workloads::standardSuite()) {
            loo.push_back(store.without(profile.name));
            models.emplace_back(profile, machine);
            truth.push_back(
                workloads::computeGroundTruth(models.back(), space));
        }
    }

};

/** Hash of the collected store's bits (set-ups must agree). */
std::uint64_t
storeHash(const telemetry::ProfileStore &store)
{
    Digest h;
    for (const auto &r : store.records())
        for (std::size_t c = 0; c < r.performance.size(); ++c) {
            h.add(r.performance[c]);
            h.add(r.power[c]);
        }
    return h.value();
}

class PaperLoop
{
  public:
    PaperLoop(const Options &opt, Report &report)
        : opt_(opt), report_(report)
    {
    }

    void run();

  private:
    struct Window
    {
        bool decision = false;
        double decisionMs = 0.0;
    };

    /** One application episode: decide, drift, redecide. */
    void episode(std::size_t round, std::size_t app, bool in_prefix);

    /** nextConfig + measure + recordMeasurement on model `model`. */
    Window step(runtime::EnergyController &ctl, stats::Rng &probe,
                stats::Rng &meas, std::size_t model, double work);

    /** Post-decision checks, quality and the snapshot round trip. */
    void afterDecision(runtime::EnergyController &ctl,
                       const runtime::ControllerOptions &copts,
                       std::size_t app, std::size_t model, double u,
                       bool in_prefix, bool warm);


    const Options &opt_;
    Report &report_;
    std::unique_ptr<World> world_;
    double idle_ = 0.0;
    const telemetry::HeartbeatMonitor monitor_;
    const telemetry::WattsUpMeter meter_;

    /** Episodes run so far (the block index of the tails). */
    std::size_t episodes_ = 0;
    BlockTail decideMs_, controlUs_;
    Samples redecideMs_, snapshotMs_;
    Samples decideTracedMs_, decideUntracedMs_, wallDecideMs_;
    HostSpeed speed_;
    Samples perfAcc_, powerAcc_, energy_;
    /** This episode's non-deciding window time, us. */
    double episodeWindowUs_ = 0.0;
    double windowUs_ = 0.0;
    std::size_t windows_ = 0;
    std::uint64_t reestimations_ = 0, fallbacks_ = 0;
    Counters prefixCounters_;
    /** Peak RSS once the set-ups and the fixed prefix are done, MB. */
    double prefixRssMb_ = 0.0;
    ReplayStats replay_;
    Trace trace_;
    estimators::LeoFit coldPerf_, coldPower_;
};

PaperLoop::Window
PaperLoop::step(runtime::EnergyController &ctl, stats::Rng &probe,
                stats::Rng &meas, std::size_t model, double work)
{
    const World &w = *world_;
    Window out;
    const double t0 = nowUs();
    const std::size_t c = ctl.nextConfig(probe);
    const double next_us = nowUs() - t0;
    const auto &ra = w.space.assignment(c);
    const telemetry::Sample s{
        c, monitor_.measureRate(w.models[model], ra, meas),
        meter_.read(w.models[model], ra, meas)};
    const bool sampling =
        ctl.state() == runtime::EnergyController::State::Sampling;
    // The probe that completes the plan is the decision: bracket it
    // with host-speed measurements.
    const bool deciding =
        sampling && !ctl.fitPending() &&
        ctl.observations().size() + 1 >= ctl.options().sampleBudget;
    if (deciding)
        speed_.measure();
    const double t1 = nowUs();
    ctl.recordMeasurement(s);
    out.decision =
        sampling &&
        ctl.state() == runtime::EnergyController::State::Controlling;
    if (out.decision) {
        // The decision: the call that completed the probe plan plus
        // the hull-walk plan over its estimates.
        optimizer::planMinimalEnergy(ctl.performanceEstimate(),
                                     ctl.powerEstimate(), idle_,
                                     {work, kDeadline});
    }
    const double call_us = nowUs() - t1;
    if (deciding)
        speed_.measure();
    episodeWindowUs_ += next_us + (out.decision ? 0.0 : call_us);
    if (out.decision) {
        wallDecideMs_.add(call_us / 1e3);
        out.decisionMs = call_us / 1e3 / speed_.factor();
    } else {
        windowUs_ += call_us;
        ++windows_;
    }
    return out;
}

void
PaperLoop::afterDecision(runtime::EnergyController &ctl,
                         const runtime::ControllerOptions &copts,
                         std::size_t app, std::size_t model, double u,
                         bool in_prefix, bool warm)
{
    const World &w = *world_;
    const workloads::GroundTruth &truth = w.truth[model];
    const double work = u * peakRate(truth) * kDeadline;
    const Quality q =
        scoreEstimates(ctl.performanceEstimate(), ctl.powerEstimate(),
                       truth, idle_, work, kDeadline);
    const bool ok = q.finite && ctl.fitsFailed() == 0 &&
                    ctl.fallbackWindows() == 0;
    report_.op(ok, "decision fell back or went non-finite");
    if (in_prefix) {
        perfAcc_.add(q.perfAccuracy);
        powerAcc_.add(q.powerAccuracy);
        energy_.add(q.energyRatio);
    }

    if (opt_.trace) {
        // Replay the decision's exact inputs stage by stage; the fits
        // must reproduce the controller's estimates bit for bit.
        trace_.harvest();
        const Replay r = replayDecision(
            w.estimator, w.space, w.loo[app], ctl.observations(),
            warm ? &coldPerf_ : nullptr, warm ? &coldPower_ : nullptr,
            idle_, in_prefix, replay_);
        trace_.discardProgramSpans();
        if (!sameBits(r.perf.values, ctl.performanceEstimate()) ||
            !sameBits(r.power.values, ctl.powerEstimate()))
            report_.fail("replayed fit differs from the controller's");
        if (!warm) {
            coldPerf_ = *ctl.warmPerfFit();
            coldPower_ = *ctl.warmPowerFit();
        }
    }

    if (warm)
        return;
    // Snapshot after the cold decision; in the prefix, a controller
    // restored from it must pace the same configuration next.
    linalg::ByteWriter wr;
    const double t0 = nowUs();
    ctl.saveState(wr);
    snapshotMs_.add((nowUs() - t0) / 1e3 / speed_.factor());
    if (!in_prefix)
        return;
    runtime::EnergyController restored(w.space, &w.estimator, w.loo[app],
                                       copts);
    linalg::ByteReader rd(wr.bytes());
    stats::Rng a(0), b(0);
    const bool same = restored.restoreState(rd) &&
                      restored.nextConfig(a) == ctl.nextConfig(b);
    report_.op(same, "snapshot restore diverged");
    if (!same)
        report_.fail("restored controller paces differently");
}

void
PaperLoop::episode(std::size_t round, std::size_t app, bool in_prefix)
{
    const World &w = *world_;
    const std::size_t napps = w.models.size();
    stats::Rng meas(mix(opt_.seed, 3, round, app));
    stats::Rng pick(mix(opt_.seed, 4, round, app));
    const double u = pick.uniform(0.1, 0.9);

    runtime::ControllerOptions copts;
    copts.targetRate = u * peakRate(w.truth[app]);
    copts.idlePower = idle_;
    runtime::EnergyController ctl(w.space, &w.estimator, w.loo[app],
                                  copts);
    stats::Rng probe(mix(opt_.seed, 2, round, app));
    episodeWindowUs_ = 0.0;
    std::size_t model = app;
    auto work = [&](std::size_t m) {
        return u * peakRate(w.truth[m]) * kDeadline;
    };

    // Cold decision.
    Window win;
    for (int k = 0; k < 64 && !win.decision; ++k)
        win = step(ctl, probe, meas, model, work(model));
    report_.op(win.decision, "probe plan never completed");
    if (!win.decision)
        return;
    decideMs_.add(episodes_, win.decisionMs);
    (trace_.on() ? decideTracedMs_ : decideUntracedMs_)
        .add(win.decisionMs);
    afterDecision(ctl, copts, app, model, u, in_prefix, false);

    // Run until the paced configuration repeats, so it has a
    // measurement history for the drift test to compare against.
    std::size_t prev = ~std::size_t{0}, paced = prev;
    bool settled = false;
    for (int k = 0; k < 16 && !settled; ++k) {
        paced = ctl.nextConfig(probe);
        settled = paced == prev;
        if (!settled) {
            step(ctl, probe, meas, model, work(model));
            prev = paced;
        }
    }
    if (!settled)
        return; // Still climbing the frontier: no drift episode.

    // Phase change to a model at least kSwitchRatio faster there.
    const std::size_t offset = pick.uniformInt(1, napps - 1);
    std::size_t next = napps;
    for (std::size_t j = 0; j + 1 < napps && next == napps; ++j) {
        const std::size_t cand = (app + offset + j) % napps;
        if (cand != app && w.truth[cand].performance[paced] >=
                               kSwitchRatio *
                                   w.truth[app].performance[paced])
            next = cand;
    }
    if (next == napps)
        return;
    model = next;

    bool resampling = false;
    for (int k = 0; k < 12 && !resampling; ++k) {
        step(ctl, probe, meas, model, work(model));
        resampling =
            ctl.state() == runtime::EnergyController::State::Sampling;
    }
    report_.op(resampling, "drift did not trigger a re-probe");
    if (!resampling)
        return;
    win = Window{};
    for (int k = 0; k < 64 && !win.decision; ++k)
        win = step(ctl, probe, meas, model, work(model));
    report_.op(win.decision, "probe plan never completed");
    if (!win.decision)
        return;
    redecideMs_.add(win.decisionMs);
    afterDecision(ctl, copts, app, model, u, in_prefix, true);
    controlUs_.add(episodes_, episodeWindowUs_ / speed_.factor());
    if (in_prefix) {
        reestimations_ += ctl.reestimations();
        fallbacks_ += ctl.fitsFailed();
    }
}

void
PaperLoop::run()
{
    Samples setup_s, collect_ms;
    std::uint64_t first_hash = 0;
    for (int k = 0; k < kSetups; ++k) {
        world_.reset();
        speed_.measure();
        const double t0 = nowUs();
        world_ = std::make_unique<World>(opt_.seed);
        const double wall_s = (nowUs() - t0) / 1e6;
        speed_.measure();
        setup_s.add(wall_s / speed_.factor());
        collect_ms.add(world_->collectMs);
        const std::uint64_t h = storeHash(world_->store);
        if (k == 0)
            first_hash = h;
        else if (h != first_hash)
            report_.fail("set-ups collected different priors");
    }
    idle_ = world_->machine.spec().idleSystemPowerW;
    const std::size_t napps = world_->models.size();

    const Counters c0 = Counters::read();
    const double start = nowUs();
    for (std::size_t round = 0;; ++round) {
        const bool in_prefix = round < kPrefixRounds;
        if (round == kPrefixRounds) {
            prefixCounters_ = Counters::read() - c0 - replay_.replayed;
            prefixRssMb_ = peakRssMb();
        }
        bool done = false;
        for (std::size_t app = 0; app < napps; ++app) {
            const double elapsed = (nowUs() - start) / 1e6;
            if (!in_prefix && elapsed >= opt_.seconds) {
                done = true;
                break;
            }
            if (opt_.trace)
                trace_.follow(elapsed, opt_.seconds);
            episode(round, app, in_prefix);
            ++episodes_;
            if (trace_.on())
                trace_.harvest();
        }
        if (done)
            break;
    }
    if (trace_.on())
        trace_.stop();

    const double energy = energy_.mean();
    const double perf_acc = perfAcc_.mean();
    const double power_acc = powerAcc_.mean();
    report_.digest(energy);
    report_.digest(perf_acc);
    report_.digest(power_acc);
    report_.digest(static_cast<double>(perfAcc_.size()));
    report_.note("host speed factor p50 " +
                 std::to_string(speed_.all().quantile(0.5)) + " over " +
                 std::to_string(speed_.all().size()) +
                 " kernel runs; wall-clock decide p50 " +
                 std::to_string(wallDecideMs_.quantile(0.5)) + " ms");
    if (!opt_.trace) {
        report_.add("setup_s", setup_s.quantile(0.5), "s",
                    setup_s.size());
        report_.add("success_ratio", report_.successRatio(), "ratio",
                    report_.attempted());
        report_.add("peak_rss_mb", prefixRssMb_, "MB", 1);
        report_.add("decide_p50_ms", decideMs_.all().quantile(0.5), "ms",
                    decideMs_.all().size());
        report_.add("decide_p95_ms", decideMs_.p95(episodes_), "ms",
                    decideMs_.all().size());
        report_.add("redecide_p50_ms", redecideMs_.quantile(0.5), "ms",
                    redecideMs_.size());
        report_.add("energy_over_optimal", energy, "ratio",
                    energy_.size());
        report_.add("perf_accuracy", perf_acc, "ratio", perfAcc_.size());
        report_.add("power_accuracy", power_acc, "ratio",
                    powerAcc_.size());
        // No service: a control period is every non-deciding window
        // of one application episode, reported as the episode total.
        report_.add("tick_p50_ms", controlUs_.all().quantile(0.5) / 1e3,
                    "ms", controlUs_.all().size());
        report_.add("tick_p95_ms", controlUs_.p95(episodes_) / 1e3, "ms",
                    controlUs_.all().size());
        // The mean, not the p50: the blob sits near 1 MB, so whether a
        // save grows its buffer once more is a per-episode coin flip
        // that a median turns into a bimodal jump between seeds.
        report_.add("snapshot_ms", snapshotMs_.mean(), "ms",
                    snapshotMs_.size());
        return;
    }

    Layers layers;
    layers.set("telemetry.collect_ms", collect_ms.quantile(0.5),
               collect_ms.size());
    setReplayLayers(replay_, layers);
    for (const std::uint64_t v : {replay_.itersCold, replay_.fitsCold,
                                  replay_.itersWarm, replay_.fitsWarm})
        report_.digest(static_cast<double>(v));
    layers.set("estimators.fits", prefixCounters_.fits, 0);
    layers.set("estimators.ridge_retries", prefixCounters_.ridge, 0);
    layers.set("runtime.window_us",
               windows_ ? windowUs_ / static_cast<double>(windows_) : 0.0,
               windows_);
    layers.set("runtime.reestimations", reestimations_, 0);
    layers.set("runtime.fallbacks", fallbacks_, 0);
    const double untraced = decideUntracedMs_.quantile(0.5);
    layers.set("obs.trace_overhead",
               untraced > 0.0 ? decideTracedMs_.quantile(0.5) / untraced
                              : 0.0,
               decideTracedMs_.size());
    for (const double v :
         {static_cast<double>(prefixCounters_.fits),
          static_cast<double>(prefixCounters_.ridge),
          static_cast<double>(reestimations_),
          static_cast<double>(fallbacks_)})
        report_.digest(v);
    if (trace_.dropped() != 0)
        report_.fail("the program's tracer dropped events");
    layers.report(report_);
}

} // namespace

void
runPaperLoop(const Options &opt, Report &report)
{
    PaperLoop(opt, report).run();
}

} // namespace perfbench

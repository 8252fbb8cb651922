/**
 * @file
 * Implementation of scenario materialization and the runners.
 */

#include "scenario/scenario.hh"

#include <cmath>
#include <utility>

#include "faults/faults.hh"
#include "linalg/error.hh"
#include "workloads/suite.hh"

namespace leo::scenario
{

namespace
{

/** Half the behavior's peak heartbeat rate over the space. */
double
autoTarget(const workloads::ApplicationBehavior &behavior,
           const platform::ConfigSpace &space)
{
    double peak = 0.0;
    for (std::size_t c = 0; c < space.size(); ++c) {
        const double r = behavior.heartbeatRate(space.assignment(c));
        if (r > peak)
            peak = r;
    }
    require(peak > 0.0, "scenario: workload has zero peak rate");
    return 0.5 * peak;
}

} // namespace

Scenario::Scenario(Spec spec, const platform::Machine &machine,
                   const platform::ConfigSpace &space)
    : spec_(std::move(spec)), machine_(machine), space_(space)
{
    switch (spec_.workload) {
      case WorkloadKind::Analytic: {
        models_.push_back(
            std::make_unique<workloads::ApplicationModel>(
                workloads::profileByName(spec_.app), machine_));
        phase_frames_.push_back(spec_.frames);
        break;
      }
      case WorkloadKind::Phased: {
        require(!spec_.phases.empty(),
                "scenario: phased workload needs at least one phase");
        for (const PhaseSpec &ph : spec_.phases) {
            require(ph.frames > 0, "scenario: phase '" + ph.app +
                                       "' has zero frames");
            require(std::isfinite(ph.scale) && ph.scale > 0.0,
                    "scenario: phase '" + ph.app +
                        "' needs a finite scale > 0");
            workloads::ApplicationProfile profile =
                workloads::profileByName(ph.app);
            profile.baseHeartbeatRate *= ph.scale;
            models_.push_back(
                std::make_unique<workloads::ApplicationModel>(
                    profile, machine_));
            phase_frames_.push_back(ph.frames);
        }
        break;
      }
      case WorkloadKind::Trace: {
        require(!spec_.traceText.empty() || !spec_.traceFile.empty(),
                "scenario: trace workload needs trace_inline or "
                "trace_file");
        const workloads::TraceTable table =
            spec_.traceText.empty()
                ? workloads::TraceTable::fromFile(spec_.traceFile)
                : workloads::TraceTable::fromString(spec_.traceText);
        workloads::TraceModelOptions topt;
        topt.idlePowerWatts = machine_.spec().idleSystemPowerW;
        topt.name = spec_.name;
        trace_ = std::make_unique<workloads::TraceApplicationModel>(
            table, space_, topt);
        break;
      }
    }

    if (trace_ != nullptr) {
        total_frames_ = spec_.frames;
        for (std::size_t s = 0; s < trace_->numSegments(); ++s)
            truths_.push_back(workloads::GroundTruth{
                trace_->segmentPerformance(s),
                trace_->segmentPower(s)});
    } else {
        for (std::size_t f : phase_frames_)
            total_frames_ += f;
        for (const auto &model : models_)
            truths_.push_back(
                workloads::computeGroundTruth(*model, space_));
    }
    require(total_frames_ > 0, "scenario: zero frames");

    target_ = spec_.targetRate > 0.0
                  ? spec_.targetRate
                  : autoTarget(trace_ != nullptr
                                   ? static_cast<const workloads::
                                         ApplicationBehavior &>(
                                         *trace_)
                                   : *models_.front(),
                               space_);
}

std::size_t
Scenario::phaseIndexAt(std::size_t frame) const
{
    if (trace_ != nullptr)
        return trace_->segmentAt(frame);
    std::size_t start = 0;
    for (std::size_t p = 0; p < phase_frames_.size(); ++p) {
        start += phase_frames_[p];
        if (frame < start)
            return p;
    }
    return phase_frames_.size() - 1;
}

const workloads::ApplicationBehavior &
Scenario::behaviorAt(std::size_t frame)
{
    if (trace_ != nullptr) {
        trace_->setWorkUnit(frame);
        return *trace_;
    }
    return *models_[phaseIndexAt(frame)];
}

const workloads::GroundTruth &
Scenario::truth(std::size_t phase) const
{
    require(phase < truths_.size(),
            "scenario: phase index out of range");
    return truths_[phase];
}

runtime::ControllerOptions
Scenario::controllerOptions(runtime::ControllerOptions base) const
{
    base.targetRate = target_;
    base.idlePower = machine_.spec().idleSystemPowerW;
    base.changePointPolicy = spec_.changePointPolicy;
    return base;
}

RunResult
runScenario(Scenario &scenario,
            const estimators::Estimator *estimator,
            const telemetry::ProfileStore &prior,
            runtime::ControllerOptions base)
{
    const Spec &spec = scenario.spec();
    const platform::ConfigSpace &space = scenario.space();
    const runtime::ControllerOptions options =
        scenario.controllerOptions(base);
    runtime::EnergyController controller(space, estimator, prior,
                                         options);

    // Fault decorators over the standard meters: with the spec's
    // fault scenario all-zero they are bitwise identical to the bare
    // meters (faults draw from a separate stream).
    const telemetry::HeartbeatMonitor base_monitor;
    const telemetry::WattsUpMeter base_meter;
    const faults::FaultyHeartbeatMonitor monitor(base_monitor,
                                                 spec.faults);
    const faults::FaultyPowerMeter meter(base_meter, spec.faults);

    stats::Rng rng(spec.seed);

    RunResult result;
    result.phaseEnergy.assign(scenario.numPhases(), 0.0);

    const double period = 1.0 / options.targetRate;
    const double idle_power = scenario.machine().spec().idleSystemPowerW;
    std::size_t deadline_hits = 0;
    std::size_t last_phase = static_cast<std::size_t>(-1);

    const std::size_t total = scenario.totalFrames();
    for (std::size_t f = 0; f < total; ++f) {
        const std::size_t phase = scenario.phaseIndexAt(f);
        const workloads::ApplicationBehavior &model =
            scenario.behaviorAt(f);

        if (estimator == nullptr && phase != last_phase) {
            // Oracle: perfect knowledge arrives at the boundary.
            const workloads::GroundTruth &t = scenario.truth(phase);
            controller.setEstimates(t.performance, t.power);
        }
        last_phase = phase;

        const bool sampling =
            controller.state() ==
            runtime::EnergyController::State::Sampling;
        const std::size_t cfg = controller.nextConfig(rng);
        const platform::ResourceAssignment &ra =
            space.assignment(cfg);

        telemetry::Sample s;
        s.configIndex = cfg;
        s.heartbeatRate = monitor.measureRate(model, ra, rng);
        s.powerWatts = meter.read(model, ra, rng);
        controller.recordMeasurement(s);

        const double true_rate = model.heartbeatRate(ra);
        const double true_power = model.powerWatts(ra);
        invariant(true_rate > 0.0, "runScenario: zero true rate");
        const double busy = 1.0 / true_rate;
        double energy = true_power * busy;
        if (busy < period)
            energy += idle_power * (period - busy);

        FrameRecord rec;
        rec.frame = f;
        rec.phase = phase;
        rec.configIndex = cfg;
        rec.rate = true_rate;
        rec.powerWatts = true_power;
        rec.energyJoules = energy;
        rec.normalizedPerformance = true_rate / options.targetRate;
        rec.sampling = sampling;
        result.trace.push_back(rec);

        result.phaseEnergy[phase] += energy;
        result.totalEnergy += energy;
        if (busy <= period * (1.0 + 1e-9))
            ++deadline_hits;
    }

    result.deadlineHitRate =
        static_cast<double>(deadline_hits) /
        static_cast<double>(total);
    result.reestimations = controller.reestimations();
    result.changePoints = controller.changePointsDetected();
    result.faultsInjected = monitor.injector().faultsInjected() +
                            meter.injector().faultsInjected();
    return result;
}

ServiceRunResult
runScenarioService(
    Scenario &scenario, const estimators::LeoEstimator &estimator,
    std::shared_ptr<const telemetry::ProfileStore> prior,
    parallel::ThreadPool &pool, ServiceRunOptions options)
{
    const Spec &spec = scenario.spec();
    service::ServiceOptions sopts = options.service;
    sopts.controller = scenario.controllerOptions(sopts.controller);

    auto svc = std::make_unique<service::Service>(
        scenario.space(), estimator, prior, pool, sopts);

    const std::size_t tenants = spec.arrivals.tenants;
    require(tenants > 0, "runScenarioService: zero tenants");
    const std::string app_label = scenario.behaviorAt(0).name();

    const telemetry::HeartbeatMonitor base_monitor;
    const telemetry::WattsUpMeter base_meter;
    // Per-tenant fault decorators and measurement-noise streams:
    // tenant t's samples are a pure function of (spec, t), so
    // schedules are independent of tenant count and drive order.
    std::vector<std::unique_ptr<faults::FaultyHeartbeatMonitor>>
        monitors;
    std::vector<std::unique_ptr<faults::FaultyPowerMeter>> meters;
    std::vector<stats::Rng> rngs;

    ServiceRunResult out;
    out.schedules.resize(tenants);
    std::size_t admitted = 0;

    for (std::size_t w = 0; w < spec.frames; ++w) {
        while (admitted < tenants &&
               w >= admitted * spec.arrivals.spacingWindows) {
            service::TenantConfig tc;
            tc.appId = app_label;
            tc.targetRate =
                scenario.targetRate() *
                (1.0 + spec.arrivals.rateSpread *
                           static_cast<double>(admitted) /
                           static_cast<double>(tenants));
            tc.seed = spec.seed + admitted;
            const auto id = svc->admit(tc);
            require(id.has_value(),
                    "runScenarioService: admission rejected");
            out.tenants.push_back(*id);
            faults::FaultScenario tenant_faults = spec.faults;
            tenant_faults.seed += admitted;
            monitors.push_back(
                std::make_unique<faults::FaultyHeartbeatMonitor>(
                    base_monitor, tenant_faults));
            meters.push_back(
                std::make_unique<faults::FaultyPowerMeter>(
                    base_meter, tenant_faults));
            rngs.emplace_back(spec.seed +
                              0x9e3779b97f4a7c15ull *
                                  (admitted + 1));
            ++admitted;
        }

        const workloads::ApplicationBehavior &behavior =
            scenario.behaviorAt(w);
        for (std::size_t t = 0; t < out.tenants.size(); ++t) {
            const std::size_t cfg = svc->nextConfig(out.tenants[t]);
            out.schedules[t].push_back(cfg);
            const platform::ResourceAssignment &ra =
                scenario.space().assignment(cfg);
            telemetry::Sample s;
            s.configIndex = cfg;
            s.heartbeatRate =
                monitors[t]->measureRate(behavior, ra, rngs[t]);
            s.powerWatts = meters[t]->read(behavior, ra, rngs[t]);
            svc->submit(out.tenants[t], s);
        }
        svc->tick();
        ++out.windowsProcessed;

        if (options.snapshotAtWindow != 0 &&
            w + 1 == options.snapshotAtWindow) {
            linalg::ByteWriter bw;
            svc->saveSnapshot(bw);
            auto fresh = std::make_unique<service::Service>(
                scenario.space(), estimator, prior, pool, sopts);
            linalg::ByteReader br(bw.bytes());
            require(fresh->restoreSnapshot(br),
                    "runScenarioService: snapshot restore failed");
            svc = std::move(fresh);
            out.restored = true;
        }
    }
    return out;
}

} // namespace leo::scenario

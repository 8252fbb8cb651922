/**
 * @file
 * Implementation of the tests' scenario helpers.
 */

#include "support/scenario_runner.hh"

#include <algorithm>
#include <sstream>

#include "faults/faults.hh"
#include "linalg/error.hh"
#include "linalg/serialize.hh"
#include "workloads/fields.hh"

namespace leo::support
{

namespace fields = workloads::fields;
using fields::formatNumber;

std::string
specToString(const scenario::Spec &spec)
{
    std::string out;
    out += "name " + spec.name + "\n";
    out += "workload ";
    out += spec.workload == scenario::WorkloadKind::Analytic ? "analytic"
           : spec.workload == scenario::WorkloadKind::Phased  ? "phased"
                                                              : "trace";
    out += "\n";
    out += "app " + spec.app + "\n";
    out += "target " + formatNumber(spec.targetRate) + "\n";
    out += "frames " + std::to_string(spec.frames) + "\n";
    out += "seed " + std::to_string(spec.seed) + "\n";
    out += "changepoint ";
    out += spec.changePointPolicy == runtime::ChangePointPolicy::Off
               ? "off"
               : "coldrefit";
    out += "\n";
    // Every fault field off its default, so a value the fault
    // injector would reject (a negative probability, say) survives
    // the round trip and is rejected there too.
    const faults::FaultScenario none;
    std::string fault;
    if (spec.faults.nanProb != none.nanProb)
        fault += " nan=" + formatNumber(spec.faults.nanProb);
    if (spec.faults.infProb != none.infProb)
        fault += " inf=" + formatNumber(spec.faults.infProb);
    if (spec.faults.dropoutProb != none.dropoutProb)
        fault += " dropout=" + formatNumber(spec.faults.dropoutProb);
    if (spec.faults.outlierProb != none.outlierProb)
        fault += " outlier=" + formatNumber(spec.faults.outlierProb);
    if (spec.faults.outlierProb != none.outlierProb ||
        spec.faults.outlierScale != none.outlierScale)
        fault +=
            " outlier_scale=" + formatNumber(spec.faults.outlierScale);
    if (spec.faults.staleProb != none.staleProb)
        fault += " stale=" + formatNumber(spec.faults.staleProb);
    if (spec.faults.seed != none.seed)
        fault += " seed=" + std::to_string(spec.faults.seed);
    if (!fault.empty())
        out += "fault" + fault + "\n";
    for (const scenario::PhaseSpec &ph : spec.phases) {
        out += "phase " + ph.app +
               " frames=" + std::to_string(ph.frames) +
               " scale=" + formatNumber(ph.scale) + "\n";
    }
    if (!spec.traceFile.empty())
        out += "trace_file " + spec.traceFile + "\n";
    if (!spec.traceText.empty()) {
        // The first of END, END1, END2, ... that no body line reads
        // as, so the heredoc closes where the body does.
        std::vector<std::string> lines;
        std::stringstream body(spec.traceText);
        for (std::string line; std::getline(body, line);)
            lines.push_back(fields::stripLine(line));
        std::string delim = "END";
        for (std::size_t k = 1; std::find(lines.begin(), lines.end(),
                                          delim) != lines.end();
             ++k)
            delim = "END" + std::to_string(k);
        out += "trace_inline <<" + delim + "\n";
        out += spec.traceText;
        if (spec.traceText.back() != '\n')
            out += '\n';
        out += delim + "\n";
    }
    if (spec.arrivals.tenants != 1 ||
        spec.arrivals.spacingWindows != 0 ||
        spec.arrivals.rateSpread != 0.0) {
        out += "tenants " + std::to_string(spec.arrivals.tenants);
        if (spec.arrivals.spacingWindows != 0)
            out += " spacing=" +
                   std::to_string(spec.arrivals.spacingWindows);
        if (spec.arrivals.rateSpread != 0.0)
            out +=
                " rate_spread=" + formatNumber(spec.arrivals.rateSpread);
        out += "\n";
    }
    return out;
}

ServiceRunResult
runScenarioService(
    scenario::Scenario &scenario,
    const estimators::LeoEstimator &estimator,
    std::shared_ptr<const telemetry::ProfileStore> prior,
    parallel::ThreadPool &pool, ServiceRunOptions options)
{
    const scenario::Spec &spec = scenario.spec();
    service::ServiceOptions sopts = options.service;
    sopts.controller = scenario.controllerOptions(sopts.controller);
    const double target = sopts.controller.targetRate;

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
                target * (1.0 + spec.arrivals.rateSpread *
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

} // namespace leo::support

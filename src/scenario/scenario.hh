/**
 * @file
 * Scenario materialization and closed-loop runners.
 *
 * A Scenario binds a Spec (scenario/spec.hh) to a concrete machine
 * and configuration space: it builds the workload backend (analytic
 * model, phase schedule, or trace replay), resolves the performance
 * demand, precomputes per-phase ground truth for oracle controllers,
 * and exposes the per-frame behavior the runners drive.
 *
 * Two runners consume a Scenario:
 *
 *  - runScenario() is the single-tenant closed loop, and the only
 *    one in the repository: the Section 6.6 experiment (fig13, tab01,
 *    examples/phase_adaptive) is a two-phase Spec run through it.
 *    Every frame the controller picks a configuration, sees noisy
 *    telemetry through the scenario's fault decorators, and the
 *    runner accounts the frame's true time and energy, including
 *    slack idling within the frame period ("pace to idle") and late
 *    frames when the chosen configuration is too slow.
 *
 *  - runScenarioService() drives the scenario through leo::service:
 *    tenants arrive per the spec's ArrivalSpec, every tenant replays
 *    the same workload with its own measurement-noise and fault
 *    streams, and the per-tenant config schedules come back for
 *    determinism assertions. An optional mid-run snapshot round-trip
 *    (save into a fresh service, restore, continue) exercises the
 *    service's resume-bit-for-bit contract under trace workloads.
 */

#ifndef LEO_SCENARIO_SCENARIO_HH
#define LEO_SCENARIO_SCENARIO_HH

#include <memory>
#include <vector>

#include "platform/machine.hh"
#include "runtime/controller.hh"
#include "scenario/spec.hh"
#include "service/service.hh"
#include "workloads/ground_truth.hh"
#include "workloads/trace.hh"

namespace leo::scenario
{

/**
 * A Spec materialized against one machine + configuration space.
 * Borrows both; they must outlive the scenario.
 */
class Scenario
{
  public:
    /**
     * @param spec    The declarative scenario.
     * @param machine The machine it runs on.
     * @param space   The configuration space the controller actuates.
     * @throws leo::FatalError when the spec cannot materialize (an
     *         unknown application, a Phased spec without phases or
     *         with a phase of zero frames or a non-positive scale, a
     *         Trace spec without a trace, a trace row outside the
     *         space).
     */
    Scenario(Spec spec, const platform::Machine &machine,
             const platform::ConfigSpace &space);

    /** @return The spec this scenario was built from. */
    const Spec &spec() const { return spec_; }
    /** @return The machine. */
    const platform::Machine &machine() const { return machine_; }
    /** @return The configuration space. */
    const platform::ConfigSpace &space() const { return space_; }

    /** Resolved performance demand (auto-resolved when the spec said
     *  0: half the peak rate of the first phase/segment). */
    double targetRate() const { return target_; }

    /** @return Frames the scenario runs. */
    std::size_t totalFrames() const { return total_frames_; }
    /** @return Number of phases (trace: segments). */
    std::size_t numPhases() const { return truths_.size(); }
    /** @return Phase index containing a global frame; frames past
     *  the end stay in the last phase (service runs may outlast
     *  the spec's frame count). */
    std::size_t phaseIndexAt(std::size_t frame) const;

    /**
     * The behavior active at a frame. For Trace workloads this moves
     * the replay's work-unit clock to the frame (hence non-const) —
     * frames map 1:1 to work units.
     */
    const workloads::ApplicationBehavior &
    behaviorAt(std::size_t frame);

    /** True per-config vectors of one phase (oracle feed). */
    const workloads::GroundTruth &truth(std::size_t phase) const;

    /**
     * Controller options with the scenario applied: the resolved
     * demand, the machine's idle power, and the spec's change-point
     * policy/method. Everything else passes through from @p base.
     */
    runtime::ControllerOptions controllerOptions(
        runtime::ControllerOptions base = {}) const;

  private:
    Spec spec_;
    const platform::Machine &machine_;
    const platform::ConfigSpace &space_;
    double target_ = 0.0;
    std::size_t total_frames_ = 0;
    /** Analytic/Phased backends: one model per phase. */
    std::vector<std::unique_ptr<workloads::ApplicationModel>> models_;
    /** Frame count per phase (Analytic/Phased). */
    std::vector<std::size_t> phase_frames_;
    /** Trace backend (Trace workloads only). */
    std::unique_ptr<workloads::TraceApplicationModel> trace_;
    std::vector<workloads::GroundTruth> truths_;
};

/** Per-frame record of a closed-loop run. */
struct FrameRecord
{
    /** Global frame index. */
    std::size_t frame = 0;
    /** Phase the application was in. */
    std::size_t phase = 0;
    /** Configuration the controller chose. */
    std::size_t configIndex = 0;
    /** True heartbeat rate achieved (frames/s). */
    double rate = 0.0;
    /** True wall power while rendering (Watts). */
    double powerWatts = 0.0;
    /** Energy of the frame period, including slack idle (Joules). */
    double energyJoules = 0.0;
    /** rate / demand: >= 1 means the frame met real-time. */
    double normalizedPerformance = 0.0;
    /** True while the controller was probing configurations. */
    bool sampling = false;
};

/** Result of a single-tenant scenario run. */
struct RunResult
{
    /** The full frame trace. */
    std::vector<FrameRecord> trace;
    /** Energy per phase (Joules). */
    std::vector<double> phaseEnergy;
    /** Total energy (Joules). */
    double totalEnergy = 0.0;
    /** Fraction of frames that met the real-time demand. */
    double deadlineHitRate = 0.0;
    /** Controller re-estimations (drift or change-point). */
    std::size_t reestimations = 0;
    /** Change-points the controller detected (policy != Off). */
    std::size_t changePoints = 0;
    /** Telemetry readings the fault scenario corrupted. */
    std::size_t faultsInjected = 0;
};

/**
 * Run a scenario to completion under one controller.
 *
 * @param scenario  The materialized scenario (its trace clock is
 *                  advanced; re-runnable — each run re-walks frames
 *                  from 0).
 * @param estimator Estimation approach; nullptr runs the oracle fed
 *                  with truth() at every phase boundary.
 * @param prior     Offline profiles for the estimator.
 * @param base      Controller options; the scenario's demand, idle
 *                  power and change-point policy are applied on top.
 */
RunResult runScenario(Scenario &scenario,
                      const estimators::Estimator *estimator,
                      const telemetry::ProfileStore &prior,
                      runtime::ControllerOptions base = {});

/** Knobs of the service-driven runner. */
struct ServiceRunOptions
{
    /** After this many windows, snapshot the service, restore into a
     *  fresh one and continue there (0 = never). No shipped caller
     *  sets it: it stays as the only mid-run restore a scenario-driven
     *  fleet run gets. */
    std::size_t snapshotAtWindow = 0;
    /** Service knobs; the controller template inherits the
     *  scenario's demand and change-point policy. */
    service::ServiceOptions service;
};

/** Result of a service-driven scenario run. */
struct ServiceRunResult
{
    /** Tenant ids in admission order. */
    std::vector<std::uint64_t> tenants;
    /** Config schedule per tenant (admission order); tenant t's
     *  schedule starts at its admission window. */
    std::vector<std::vector<std::size_t>> schedules;
    /** Windows driven. */
    std::size_t windowsProcessed = 0;
    /** True iff the snapshot round-trip ran. */
    bool restored = false;
};

/**
 * Drive a scenario's tenant population through leo::service.
 *
 * Tenant t is admitted at window t * spacingWindows with demand
 * target * (1 + rateSpread * t / tenants), its own seed and its own
 * fault stream. Deterministic: the schedules depend only on the spec
 * and the service options, never on shard or thread count.
 */
ServiceRunResult runScenarioService(
    Scenario &scenario, const estimators::LeoEstimator &estimator,
    std::shared_ptr<const telemetry::ProfileStore> prior,
    parallel::ThreadPool &pool, ServiceRunOptions options = {});

} // namespace leo::scenario

#endif // LEO_SCENARIO_SCENARIO_HH

/**
 * @file
 * Adapting to phase changes (the Section 6.6 scenario).
 *
 * fluidanimate renders frames in real time; halfway through, its
 * input enters a lighter phase needing 2/3 the resources per frame.
 * A LEO-driven controller detects the drift from its predictions,
 * re-samples, re-estimates, and settles on a cheaper configuration —
 * compare its energy with an oracle that switches instantly.
 */

#include <cstdio>

#include "estimators/leo.hh"
#include "platform/config_space.hh"
#include "scenario/scenario.hh"
#include "telemetry/profile_store.hh"
#include "workloads/suite.hh"

int
main()
{
    using namespace leo;

    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    stats::Rng rng(4);

    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    auto prior = store.without("fluidanimate");

    // The workload in the scenario DSL: the light phase runs at 3/2
    // the heavy phase's heartbeat rate at every configuration.
    scenario::Spec spec = scenario::Spec::fromString(
        "name phase_adaptive\n"
        "workload phased\n"
        "seed 9\n"
        "phase fluidanimate frames=100 scale=1.0\n"
        "phase fluidanimate frames=100 scale=1.5\n");

    // Real-time demand: 60% of the heavy phase's peak rate.
    spec.targetRate = 0.6 * scenario::Scenario(spec, machine, space)
                                .truth(0)
                                .performance.max();
    scenario::Scenario sc(spec, machine, space);

    runtime::ControllerOptions opt;
    opt.sampleBudget = 6;

    estimators::LeoEstimator leo;
    auto mine = scenario::runScenario(sc, &leo, prior, opt);
    auto oracle = scenario::runScenario(sc, nullptr, store, opt);

    std::printf("frame  phase  config  rate/target  power-W  "
                "sampling\n");
    for (const auto &f : mine.trace) {
        if (f.frame % 10 != 0 && !f.sampling)
            continue; // print every 10th frame plus probe frames
        std::printf("%5zu  %5zu  %6zu  %11.2f  %7.1f  %s\n", f.frame,
                    f.phase, f.configIndex,
                    f.normalizedPerformance, f.powerWatts,
                    f.sampling ? "probe" : "");
    }

    std::printf("\nPhase energies (J): LEO %.0f / %.0f  |  oracle "
                "%.0f / %.0f\n",
                mine.phaseEnergy[0], mine.phaseEnergy[1],
                oracle.phaseEnergy[0], oracle.phaseEnergy[1]);
    std::printf("Total: LEO %.0f J vs oracle %.0f J (%.1f%% over); "
                "%zu re-estimation(s); %.0f%% frames on time\n",
                mine.totalEnergy, oracle.totalEnergy,
                100.0 * (mine.totalEnergy / oracle.totalEnergy - 1.0),
                mine.reestimations, 100.0 * mine.deadlineHitRate);
    return 0;
}

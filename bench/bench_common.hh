/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries.
 *
 * Every bench prints the rows/series of one paper table or figure
 * (DESIGN.md section 5). Knobs shared across benches come from the
 * environment so the default run is laptop-fast while
 * `LEO_BENCH_TRIALS=10 LEO_BENCH_FULL=1 ...` reproduces the paper's
 * full protocol:
 *
 *   LEO_BENCH_TRIALS  trials per benchmark for accuracy figures
 *                     (paper: 10; default here: 2)
 *   LEO_BENCH_FULL    1 = always use the full 1024-config space for
 *                     the sweep figures (default: fig12 uses a
 *                     512-config reduction to bound runtime)
 *   LEO_BENCH_SEED    master seed (default 42)
 *   LEO_THREADS       size of the shared worker pool the accuracy
 *                     sweeps fan their fits across (default:
 *                     hardware concurrency; results are identical
 *                     at any value)
 */

#ifndef LEO_BENCH_BENCH_COMMON_HH
#define LEO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "experiments/report.hh"
#include "platform/config_space.hh"
#include "scenario/scenario.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

namespace leo::bench
{

/** The evaluation world: machine, space and offline database. */
struct World
{
    platform::Machine machine;
    platform::ConfigSpace space;
    telemetry::ProfileStore store;
};

/** Master seed from LEO_BENCH_SEED (default 42). */
inline std::uint64_t
seed()
{
    return experiments::envSize("LEO_BENCH_SEED", 42);
}

/** Trials per benchmark from LEO_BENCH_TRIALS (default 2). */
inline std::size_t
trials(std::size_t fallback = 2)
{
    return experiments::envSize("LEO_BENCH_TRIALS", fallback);
}

/** Build the standard world on a given space. */
inline World
makeWorld(platform::ConfigSpace space)
{
    platform::Machine machine;
    stats::Rng rng(seed());
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    return World{machine, std::move(space), std::move(store)};
}

/** The full 1024-configuration world (Section 6.1). */
inline World
fullWorld()
{
    platform::Machine machine;
    return makeWorld(platform::ConfigSpace::fullFactorial(machine));
}

/** The 32-point core-allocation world (Section 2). */
inline World
coreOnlyWorld()
{
    platform::Machine machine;
    return makeWorld(platform::ConfigSpace::coreOnly(machine));
}

/**
 * The sweep world: full space unless the bench opted into the
 * 512-config reduction and LEO_BENCH_FULL is unset.
 */
inline World
sweepWorld()
{
    platform::Machine machine;
    if (experiments::envSize("LEO_BENCH_FULL", 0) != 0)
        return fullWorld();
    return makeWorld(
        platform::ConfigSpace::reducedFactorial(machine, 1, 2));
}

/**
 * The Section 6.6 workload (Fig. 13, Tab. 1) as a scenario: 400
 * frames of fluidanimate, then 400 frames that need 2/3 the
 * resources per frame (3/2 the heartbeat rate at every
 * configuration), paced at 60% of the first phase's peak rate on
 * @p w's space. Runs with the master seed.
 */
inline scenario::Spec
phaseChangeSpec(const World &w)
{
    scenario::Spec spec;
    spec.name = "fluidanimate_two_phase";
    spec.workload = scenario::WorkloadKind::Phased;
    spec.phases = {{"fluidanimate", 1.0, 400},
                   {"fluidanimate", 1.5, 400}};
    spec.seed = seed();
    const scenario::Scenario heavy(spec, w.machine, w.space);
    spec.targetRate = 0.6 * heavy.truth(0).performance.max();
    return spec;
}

/** Print the standard bench header. */
inline void
banner(const std::string &what, const std::string &paper_ref)
{
    std::printf("=== %s ===\n", what.c_str());
    std::printf("Paper reference: %s\n\n", paper_ref.c_str());
}

} // namespace leo::bench

#endif // LEO_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Figure 13: fluidanimate transitioning through phases.
 *
 * Closed-loop run of bench::phaseChangeSpec() on the full
 * 1024-configuration space: frames 0..399 are the heavy phase,
 * 400..799 the light phase (2/3 the work per frame). Prints
 * per-frame normalized performance (a) and power above idle (b) for
 * LEO, Offline, Online and the oracle. The paper's claims: every
 * approach meets the performance goal in both phases (gradient
 * ascent), and LEO's power hugs the oracle's after the transition.
 */

#include "bench_common.hh"

using namespace leo;

int
main()
{
    bench::banner("Figure 13 — phased fluidanimate, closed loop",
                  "all approaches meet the demand; LEO's power is "
                  "near-oracle in both phases");

    bench::World w = bench::fullWorld();
    scenario::Scenario sc(bench::phaseChangeSpec(w), w.machine,
                          w.space);
    auto prior = w.store.without("fluidanimate");

    runtime::ControllerOptions opt;
    opt.sampleBudget = 20;

    estimators::LeoEstimator leo;
    estimators::OnlineEstimator online;
    estimators::OfflineEstimator offline;

    struct Variant
    {
        const char *name;
        const estimators::Estimator *est;
        const telemetry::ProfileStore *prior;
    };
    const Variant variants[] = {
        {"leo", &leo, &prior},
        {"online", &online, &prior},
        {"offline", &offline, &prior},
        {"oracle", nullptr, &w.store},
    };

    std::vector<scenario::RunResult> results;
    for (const Variant &v : variants)
        results.push_back(
            scenario::runScenario(sc, v.est, *v.prior, opt));

    std::printf("frame  |  rate/target: leo online offline oracle  |"
                "  power-above-idle-W: leo online offline oracle\n");
    const double idle = w.machine.spec().idleSystemPowerW;
    const std::size_t change = sc.spec().phases[0].frames;
    for (std::size_t f = 0; f < sc.totalFrames(); f += 20) {
        std::printf("%5zu  |  %5.2f %6.2f %7.2f %6.2f  |  "
                    "%6.1f %6.1f %7.1f %6.1f%s\n",
                    f, results[0].trace[f].normalizedPerformance,
                    results[1].trace[f].normalizedPerformance,
                    results[2].trace[f].normalizedPerformance,
                    results[3].trace[f].normalizedPerformance,
                    results[0].trace[f].powerWatts - idle,
                    results[1].trace[f].powerWatts - idle,
                    results[2].trace[f].powerWatts - idle,
                    results[3].trace[f].powerWatts - idle,
                    f == change ? "   <-- phase change" : "");
    }
    std::printf("\ndeadline hit rate: leo %.2f  online %.2f  offline "
                "%.2f  oracle %.2f\n",
                results[0].deadlineHitRate,
                results[1].deadlineHitRate,
                results[2].deadlineHitRate,
                results[3].deadlineHitRate);
    std::printf("re-estimations:    leo %zu  online %zu  offline %zu\n",
                results[0].reestimations, results[1].reestimations,
                results[2].reestimations);
    return 0;
}

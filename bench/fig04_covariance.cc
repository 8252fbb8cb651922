/**
 * @file
 * Figure 4: the learned configuration covariance.
 *
 * The paper illustrates how Sigma captures correlation between
 * configurations — nearby core counts covary strongly, so observing
 * one informs the other. This bench fits the hierarchical model on
 * the 32-point core space and prints the correlation matrix (coarse
 * 8x8 blocks plus selected exact entries).
 */

#include <cmath>

#include "bench_common.hh"

using namespace leo;

int
main()
{
    bench::banner("Figure 4 — learned covariance across configurations",
                  "correlation decays with core-count distance; "
                  "adjacent configurations share information");

    bench::World w = bench::coreOnlyWorld();
    auto prior = w.store.without("kmeans");
    workloads::ApplicationModel kmeans(
        workloads::profileByName("kmeans"), w.machine);

    stats::Rng rng(bench::seed());
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    telemetry::Profiler profiler(monitor, meter);
    telemetry::UniformGridSampler grid;
    auto obs = profiler.sample(kmeans, w.space, grid, 6, rng);

    estimators::LeoEstimator leo;
    auto fit = leo.fitMetric(
        estimators::priorVectors(prior,
                                 estimators::Metric::Performance),
        obs.indices, obs.performance);

    // The fit carries Sigma factored; materialize it for display.
    const linalg::Matrix s = fit.covariance();
    auto corr = [&](std::size_t i, std::size_t j) {
        return s(i, j) / std::sqrt(s(i, i) * s(j, j));
    };

    // Coarse 8x8 view: average correlation within 4-core blocks.
    std::printf("block-averaged correlation (4-core blocks)\n");
    std::printf("        ");
    for (int b = 0; b < 8; ++b)
        std::printf("  %2d-%2d", 4 * b + 1, 4 * b + 4);
    std::printf("\n");
    for (int bi = 0; bi < 8; ++bi) {
        std::printf("  %2d-%2d ", 4 * bi + 1, 4 * bi + 4);
        for (int bj = 0; bj < 8; ++bj) {
            double acc = 0.0;
            for (int i = 0; i < 4; ++i)
                for (int j = 0; j < 4; ++j)
                    acc += corr(4 * bi + i, 4 * bj + j);
            std::printf("  %5.2f", acc / 16.0);
        }
        std::printf("\n");
    }

    std::printf("\nselected entries\n");
    std::printf("  corr(cores 8, cores 9)  = %.3f  (adjacent)\n",
                corr(7, 8));
    std::printf("  corr(cores 8, cores 16) = %.3f\n", corr(7, 15));
    std::printf("  corr(cores 2, cores 32) = %.3f  (distant)\n",
                corr(1, 31));
    std::printf("\nEM: %zu iterations, sigma^2 = %.5f, converged=%d\n",
                fit.iterations, fit.sigma2, fit.converged ? 1 : 0);
    return 0;
}

/**
 * @file
 * Implementation of the accuracy experiment.
 *
 * The leave-one-out protocol runs one independent estimation problem
 * per (application, trial, approach); those fits are fanned across
 * the shared thread pool in one parallel region. All randomness is
 * forked from the master RNG in the serial order before any parallel
 * work starts, so the experiment's output is identical at every
 * thread count.
 */

#include "experiments/accuracy.hh"

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "linalg/error.hh"
#include "parallel/parallel_for.hh"
#include "stats/metrics.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"

namespace leo::experiments
{

namespace
{

/**
 * Score one estimate against truth, handling the unanchored
 * zero-observation case (estimators then return unit-mean shapes; in
 * the paper's speedup space no scale knowledge is needed, so the
 * harness supplies the truth's scale — Equation (5) is invariant
 * under that common factor).
 */
double
score(const estimators::MetricEstimate &est,
      const linalg::Vector &truth, bool anchored)
{
    if (anchored)
        return stats::accuracy(est.values, truth);
    const double est_mean = est.values.mean();
    if (est_mean <= 0.0)
        return 0.0;
    const linalg::Vector rescaled =
        est.values * (truth.mean() / est_mean);
    return stats::accuracy(rescaled, truth);
}

} // namespace

std::vector<AccuracyRow>
runAccuracyExperiment(estimators::Metric metric,
                      const platform::Machine &machine,
                      const platform::ConfigSpace &space,
                      const std::vector<workloads::ApplicationProfile> &apps,
                      const AccuracyOptions &options)
{
    require(!apps.empty(), "runAccuracyExperiment: no applications");
    require(options.trials >= 1,
            "runAccuracyExperiment: need >= 1 trial");

    stats::Rng master(options.seed);
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;
    const telemetry::Profiler profiler(monitor, meter);
    const telemetry::RandomSampler policy;

    // Offline database over the full benchmark set (leave-one-out
    // views are taken per target below).
    const telemetry::ProfileStore store = telemetry::ProfileStore::collect(
        apps, machine, space, monitor, meter, master);

    const estimators::LeoEstimator leo_est;
    const estimators::OnlineEstimator online_est;
    const estimators::OfflineEstimator offline_est;

    // The fits fan out on the shared pool (LEO_THREADS); results are
    // identical at every pool size.
    parallel::ThreadPool &pool = parallel::ThreadPool::global();

    const std::size_t n_apps = apps.size();
    const std::size_t trials = options.trials;

    // Per-(app, trial) sampling, serial and in the seed's original
    // order so every RNG fork draws the same stream regardless of
    // the pool size; the expensive part — the fits — fans out.
    std::vector<workloads::GroundTruth> truths;
    truths.reserve(n_apps);
    std::vector<std::vector<linalg::Vector>> priors(n_apps);
    // Laid out app-major, trial-minor: a * trials + t.
    std::vector<telemetry::Observations> samples;
    samples.reserve(n_apps * trials);

    for (std::size_t a = 0; a < n_apps; ++a) {
        const workloads::ApplicationProfile &profile = apps[a];
        const workloads::ApplicationModel model(profile, machine);
        truths.push_back(workloads::computeGroundTruth(model, space));
        priors[a] = estimators::priorVectors(
            store.without(profile.name), metric);
        for (std::size_t t = 0; t < trials; ++t) {
            stats::Rng rng = master.fork();
            samples.push_back(profiler.sample(
                model, space, policy, options.sampleBudget, rng));
        }
    }

    // Every (approach, app, trial) fit in one parallel region, laid
    // out approach-major: approach * fits + a * trials + t.
    const estimators::Estimator *const approaches[] = {
        &leo_est, &online_est, &offline_est};
    const std::size_t fits = samples.size();
    std::vector<estimators::MetricEstimate> out(3 * fits);
    parallel::parallelFor(pool, out.size(), [&](std::size_t k) {
        const telemetry::Observations &obs = samples[k % fits];
        out[k] = approaches[k / fits]->estimateMetric(
            space, priors[(k % fits) / trials], obs.indices,
            metric == estimators::Metric::Performance ? obs.performance
                                                      : obs.power);
    });

    std::vector<AccuracyRow> rows;
    rows.reserve(n_apps);
    for (std::size_t a = 0; a < n_apps; ++a) {
        const linalg::Vector &truth =
            metric == estimators::Metric::Performance
                ? truths[a].performance
                : truths[a].power;
        AccuracyRow row;
        row.application = apps[a].name;
        for (std::size_t t = 0; t < trials; ++t) {
            const std::size_t k = a * trials + t;
            const bool anchored = !samples[k].indices.empty();
            row.leo += score(out[k], truth, anchored);
            row.online += score(out[fits + k], truth, anchored);
            row.offline += score(out[2 * fits + k], truth, anchored);
        }
        const double n = static_cast<double>(trials);
        row.leo /= n;
        row.online /= n;
        row.offline /= n;
        rows.push_back(row);
    }
    return rows;
}

double
meanAccuracy(const std::vector<AccuracyRow> &rows,
             double AccuracyRow::*column)
{
    require(!rows.empty(), "meanAccuracy: no rows");
    double acc = 0.0;
    for (const AccuracyRow &r : rows)
        acc += r.*column;
    return acc / static_cast<double>(rows.size());
}

} // namespace leo::experiments

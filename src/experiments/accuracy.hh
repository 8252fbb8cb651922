/**
 * @file
 * The estimation-accuracy experiment of Sections 6.3 and 6.5.
 *
 * Protocol (Section 6.3): deploy each of the 25 applications, let LEO
 * and the Online method sample the same 20 random configurations,
 * give LEO additionally the offline profiles of the other 24
 * applications (leave-one-out), estimate every configuration, and
 * score with the accuracy metric of Equation (5) against exhaustive
 * ground truth, averaging over 10 trials.
 */

#ifndef LEO_EXPERIMENTS_ACCURACY_HH
#define LEO_EXPERIMENTS_ACCURACY_HH

#include <string>
#include <vector>

#include "estimators/estimator.hh"
#include "platform/config_space.hh"
#include "workloads/app_model.hh"

namespace leo::experiments
{

/** Accuracy of every approach for one benchmark. */
struct AccuracyRow
{
    /** Benchmark name. */
    std::string application;
    /** Mean Equation-(5) accuracy over trials, per approach. */
    double leo = 0.0;
    double online = 0.0;
    double offline = 0.0;
};

/** Experiment knobs. */
struct AccuracyOptions
{
    /** Observations per trial (paper: 20). */
    std::size_t sampleBudget = 20;
    /** Trials averaged per benchmark (paper: 10). */
    std::size_t trials = 10;
    /** Master seed (profile collection, sampling, noise). */
    std::uint64_t seed = 42;
};

/**
 * Run the accuracy experiment for one metric across a benchmark set.
 *
 * @param metric  Performance (Fig. 5) or Power (Fig. 6).
 * @param machine The machine model.
 * @param space   The configuration space.
 * @param apps    Benchmarks to evaluate (leave-one-out priors are
 *                drawn from this same set).
 * @param options Experiment knobs.
 * @return One row per benchmark, in input order.
 */
std::vector<AccuracyRow> runAccuracyExperiment(
    estimators::Metric metric, const platform::Machine &machine,
    const platform::ConfigSpace &space,
    const std::vector<workloads::ApplicationProfile> &apps,
    const AccuracyOptions &options);

/** Mean of a column across rows. */
double meanAccuracy(const std::vector<AccuracyRow> &rows,
                    double AccuracyRow::*column);

} // namespace leo::experiments

#endif // LEO_EXPERIMENTS_ACCURACY_HH

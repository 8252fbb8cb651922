/**
 * @file
 * Replaying a decision's exact inputs through the public estimator
 * and optimizer calls, one pipeline stage at a time.
 *
 * The controller and the service run sanitize, prior preparation,
 * the basis build, both EM fits, the frontier and the plan inside one
 * call. A replay re-runs each stage on the same inputs under its own
 * timer, which yields the per-layer times of the traced run, and the
 * fits it produces are the ones the program computed (the estimator
 * is deterministic), which yields estimate quality where the program
 * does not expose its estimates. Replays run outside every timed
 * region, and the registry counts they cause are subtracted from the
 * traffic's counts.
 */

#ifndef LEO_PERFBENCH_REPLAY_HH
#define LEO_PERFBENCH_REPLAY_HH

#include <cstdint>

#include "common.hh"
#include "estimators/leo.hh"
#include "telemetry/profile_store.hh"

namespace perfbench
{

/** The process-wide registry counters the benchmark reports. */
struct Counters
{
    std::uint64_t fits = 0;
    std::uint64_t ridge = 0;
    std::uint64_t lpSolves = 0;
    std::uint64_t lpPivots = 0;
    std::uint64_t globalInfeasible = 0;

    /** Current values from obs::Registry::global(). */
    static Counters read();
    Counters operator-(const Counters &o) const;
    Counters &operator+=(const Counters &o);
};

/** Per-stage timings and EM iteration counts of replayed decisions. */
struct ReplayStats
{
    Samples priorPrepMs;  //!< priorVectors + normalizeShapes, per fit
    Samples sanitizeUs;   //!< sanitizeObservations, per call
    Samples fitColdMs;    //!< estimateMetric without a warm fit
    Samples fitWarmMs;    //!< estimateMetric warm-started
    Samples priorBasisMs; //!< LowRankBasis over the prior shapes
    Samples obsBasisMs;   //!< appendUnit over the observed indices
    Samples frontierUs;   //!< paretoFrontier over the estimates
    Samples hullPlanUs;   //!< planMinimalEnergy over the estimates
    /** EM iterations, fits and unreliable (fallen-back) fit pairs;
     *  counted only for the fixed prefix, so they repeat exactly. */
    std::uint64_t itersCold = 0;
    std::uint64_t fitsCold = 0;
    std::uint64_t itersWarm = 0;
    std::uint64_t fitsWarm = 0;
    std::uint64_t unreliable = 0;
    /** Registry counts caused by replays, to subtract. */
    Counters replayed;
};

/** One replayed decision: both estimates and both fits. */
struct Replay
{
    leo::estimators::MetricEstimate perf;
    leo::estimators::MetricEstimate power;
    leo::estimators::LeoFit perfFit;
    leo::estimators::LeoFit powerFit;
};

/**
 * Re-run one decision stage by stage.
 *
 * @param prior     The prior the program fitted against.
 * @param obs       The observation set of the decision.
 * @param warm_perf Warm-start fits (both null for a cold decision).
 * @param in_prefix Count EM iterations into `stats` (fixed prefix).
 */
Replay replayDecision(const leo::estimators::LeoEstimator &estimator,
                      const leo::platform::ConfigSpace &space,
                      const leo::telemetry::ProfileStore &prior,
                      const leo::telemetry::Observations &obs,
                      const leo::estimators::LeoFit *warm_perf,
                      const leo::estimators::LeoFit *warm_power,
                      double idle_power, bool in_prefix,
                      ReplayStats &stats);

/** True iff two vectors are bit-for-bit equal. */
bool sameBits(const leo::linalg::Vector &a, const leo::linalg::Vector &b);

/** Set the replay stages' per-layer metrics (medians per call). */
void setReplayLayers(const ReplayStats &stats, Layers &layers);

} // namespace perfbench

#endif // LEO_PERFBENCH_REPLAY_HH

/**
 * @file
 * Minimal-energy schedules under a performance constraint.
 *
 * Solves the linear program of Equation (1),
 *
 *     min  sum_c p_c t_c
 *     s.t. sum_c r_c t_c = W,  sum_c t_c <= T,  t >= 0,
 *
 * by walking the lower convex hull of the performance/power tradeoff
 * space (Section 5.3). The slack time T - sum t_c is spent idling at
 * the system's idle power, which the hull walk accounts for by
 * including the idle pseudo-configuration; race-to-idle is the
 * special case that mixes only the all-resources configuration with
 * idle. A simplex cross-check of the hull walk lives in the tests.
 */

#ifndef LEO_OPTIMIZER_SCHEDULE_HH
#define LEO_OPTIMIZER_SCHEDULE_HH

#include <vector>

#include "linalg/vector.hh"
#include "optimizer/pareto.hh"

namespace leo::optimizer
{

/** Time allocated to one configuration. */
struct Allocation
{
    /** Configuration index (kIdleConfig = idle). */
    std::size_t configIndex = kIdleConfig;
    /** Seconds to spend there. */
    double seconds = 0.0;
};

/** A planned execution. */
struct Schedule
{
    /** The time allocations (at most two configs plus idle). */
    std::vector<Allocation> parts;
    /** Energy the planner predicts for the plan (Joules). */
    double predictedEnergy = 0.0;
    /** True iff the planner believed the deadline is achievable. */
    bool feasible = true;
};

/** The constraint: W work units by deadline T. */
struct PerformanceConstraint
{
    /** Work (heartbeats) that must complete. */
    double work = 0.0;
    /** Deadline in seconds. */
    double deadlineSeconds = 0.0;
};

/**
 * Plan the minimal-energy schedule for a constraint, given estimated
 * per-configuration performance and power.
 *
 * @param performance Estimated heartbeat rate per configuration.
 * @param power       Estimated Watts per configuration.
 * @param idle_power  Watts consumed by the idle system.
 * @param constraint  Work and deadline.
 * @return The plan. When even the fastest configuration cannot meet
 *         the deadline, the plan runs it for the whole deadline and
 *         is marked infeasible (best effort).
 */
Schedule planMinimalEnergy(const linalg::Vector &performance,
                           const linalg::Vector &power,
                           double idle_power,
                           const PerformanceConstraint &constraint);

/** Outcome of executing a schedule against the true application. */
struct ExecutionResult
{
    /** Energy actually consumed (Joules), over max(T, completion). */
    double energyJoules = 0.0;
    /** When the work actually finished (seconds). */
    double completionSeconds = 0.0;
    /** True iff the work finished by the deadline. */
    bool deadlineMet = false;
};

/**
 * Execute a plan against the *true* performance/power vectors.
 *
 * Faithful to how a mispredicted plan plays out on real hardware: the
 * plan's parts run in order at their true rates; if work remains when
 * the plan ends, the plan's fastest part keeps running past the
 * deadline (energy keeps accruing); if work finishes early, the
 * system idles until the deadline. This is the mechanism behind
 * Figure 9's observation that under-estimated frontiers miss
 * deadlines while over-estimated ones waste energy.
 *
 * @param schedule         The plan (built from estimates).
 * @param true_performance True heartbeat rates.
 * @param true_power       True Watts.
 * @param idle_power       Idle Watts.
 * @param constraint       The constraint being served.
 */
ExecutionResult executeSchedule(const Schedule &schedule,
                                const linalg::Vector &true_performance,
                                const linalg::Vector &true_power,
                                double idle_power,
                                const PerformanceConstraint &constraint);

/**
 * Execute a plan under the runtime's performance guard.
 *
 * The paper's runtime does not run plans open loop: "all approaches
 * use gradient ascent to increase performance until the demand is
 * met" (Section 6.6). This executor emulates that guard: time is
 * divided into control periods; whenever the planned configuration's
 * *true* rate falls short of the rate still required to finish by
 * the deadline, the period instead runs the cheapest configuration
 * on the true Pareto frontier that meets the required rate (the
 * fastest one if none does). Mispredicted plans therefore meet the
 * deadline whenever it is physically possible and pay for their
 * misprediction in energy — which also guarantees that no estimate's
 * measured energy can undercut the true optimum, since every guarded
 * run is a feasible point of the Equation (1) program.
 *
 * @param schedule         The plan (built from estimates).
 * @param true_performance True heartbeat rates.
 * @param true_power       True Watts.
 * @param idle_power       Idle Watts.
 * @param constraint       The constraint being served.
 * @param control_periods  Number of guard evaluations across the
 *                         deadline window.
 */
ExecutionResult executeScheduleGuarded(
    const Schedule &schedule, const linalg::Vector &true_performance,
    const linalg::Vector &true_power, double idle_power,
    const PerformanceConstraint &constraint,
    std::size_t control_periods = 100);

} // namespace leo::optimizer

#endif // LEO_OPTIMIZER_SCHEDULE_HH

/**
 * @file
 * Global multi-app co-scheduling under a shared power cap.
 *
 * Generalizes the single-app program of Equation (1) to N apps
 * sharing one machine. Time is discretized into intervals whose
 * boundaries are the sorted unique deadlines; the decision variables
 * are the seconds each app spends in each Pareto-frontier
 * configuration within each interval it is allowed to use:
 *
 *     min  sum_{a,f,i} (p_f - p_idle) x[a][f][i]
 *     s.t. sum_{f,i} r_f x[a][f][i]  = W_a            (per app)
 *          sum_{a,f} x[a][f][i]     <= L_i            (per interval)
 *          sum_{a,f} (p_f - p_idle) x[a][f][i]
 *                      <= (cap - p_idle) L_i          (per interval)
 *          x >= 0,
 *
 * where app a may only use intervals ending at or before its
 * deadline. The exclusivity row models one machine (one app runs at
 * a time); the cap row bounds the machine's *average* power over each
 * interval — the natural cap for a time-sharing LP, equivalent to an
 * energy budget of cap * L_i per interval. Total machine energy is
 * the objective plus p_idle * max deadline.
 *
 * The program is solved with the two-phase simplex in
 * linalg/simplex.hh. For a single app with a slack cap it reduces
 * exactly to Equation (1), so that case short-circuits to the hull
 * walk of planMinimalEnergy; planPerAppGreedy on the same one demand
 * solves that program as an LP, and the tests assert the two agree.
 */

#ifndef LEO_OPTIMIZER_GLOBAL_HH
#define LEO_OPTIMIZER_GLOBAL_HH

#include <limits>
#include <vector>

#include "linalg/vector.hh"
#include "optimizer/schedule.hh"

namespace leo::optimizer
{

/** No power cap: the cap rows are omitted entirely. */
inline constexpr double kNoPowerCap =
    std::numeric_limits<double>::infinity();

/** One app's estimated tradeoffs and its performance constraint. */
struct TenantDemand
{
    /** Estimated heartbeat rate per configuration. */
    linalg::Vector performance;
    /** Estimated Watts per configuration. */
    linalg::Vector power;
    /** Work and deadline. */
    PerformanceConstraint constraint;
};

/** Knobs of the global planner. */
struct GlobalPlanOptions
{
    /** Machine-wide average-power cap (Watts); kNoPowerCap = none. */
    double powerCapWatts = kNoPowerCap;
};

/** Machine usage within one interval of the global plan. */
struct IntervalUsage
{
    /** Interval end (seconds since the horizon start). */
    double endSeconds = 0.0;
    /** Seconds some app occupies the machine in this interval. */
    double busySeconds = 0.0;
    /** Energy of the occupied time (Joules, at config power). */
    double activeEnergyJoules = 0.0;
};

/** The co-schedule for all apps on the machine. */
struct GlobalSchedule
{
    /**
     * Per-app schedules, index-aligned with the demands. Each sums
     * to its app's deadline (busy time plus an idle tail) and its
     * predictedEnergy covers that window, making it directly
     * comparable with planMinimalEnergy's output.
     */
    std::vector<Schedule> perTenant;
    /**
     * Predicted machine energy over the whole horizon [0, max
     * deadline]: active energy plus idle power for every unoccupied
     * second. When the plan is infeasible this degrades to the sum
     * of the per-app best-effort energies (diagnostic only).
     */
    double predictedEnergy = 0.0;
    /** True iff every app's constraint is met under sharing. */
    bool feasible = true;
    /** Interval structure the LP used (empty on the fast path). */
    std::vector<IntervalUsage> intervals;
};

/**
 * Plan the minimal-energy co-schedule for N apps sharing one
 * machine, optionally under a machine-wide power cap.
 *
 * Degenerate constraints are handled uniformly with the single-app
 * planners: zero work is always feasible (the app just idles), and
 * demands no machine — even an app whose every configuration has
 * zero rate is feasible at zero work. When the shared program is
 * infeasible (deadlines exceed machine capacity, or the cap is too
 * tight), every app falls back to its standalone best-effort
 * planMinimalEnergy plan and the result is marked infeasible.
 *
 * Deterministic: apps, frontier points, and intervals are iterated
 * in fixed order and the LP is solved serially with a fixed pivoting
 * rule (Bland's), so equal inputs produce bit-equal plans regardless
 * of thread or shard count.
 *
 * @param demands    One entry per app (deadlines must be > 0).
 * @param idle_power Watts consumed by the idle machine.
 * @param options    The power cap.
 */
GlobalSchedule planGlobalSchedule(
    const std::vector<TenantDemand> &demands, double idle_power,
    const GlobalPlanOptions &options = {});

/**
 * The per-app greedy baseline: apps are planned one at a time in
 * index order, each solving its own LP against whatever interval
 * time and cap budget the earlier apps left behind. Any feasible
 * greedy outcome is a feasible point of the global program, so
 * planGlobalSchedule never predicts more energy than this baseline —
 * and beats it outright when greedy's front-loading squeezes a
 * later, tighter app (bench/tab03_global_cap.cc measures the gap).
 */
GlobalSchedule planPerAppGreedy(
    const std::vector<TenantDemand> &demands, double idle_power,
    const GlobalPlanOptions &options = {});

} // namespace leo::optimizer

#endif // LEO_OPTIMIZER_GLOBAL_HH

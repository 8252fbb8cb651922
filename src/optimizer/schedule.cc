/**
 * @file
 * Implementation of energy scheduling.
 */

#include "optimizer/schedule.hh"

#include <algorithm>
#include <cmath>

#include "linalg/error.hh"
#include "obs/obs.hh"

namespace leo::optimizer
{

namespace
{

/** Registry instruments of the scheduler (lazily registered). */
struct PlanObs
{
    obs::Counter plans =
        obs::Registry::global().counter(obs::names::kOptimizerPlansComputed);
    obs::Counter infeasible =
        obs::Registry::global().counter(obs::names::kOptimizerPlansInfeasible);
};

PlanObs &
planObs()
{
    static PlanObs o;
    return o;
}

/** Power of a part under an estimate/truth vector. */
double
partPower(const Allocation &part, const linalg::Vector &power,
          double idle_power)
{
    if (part.configIndex == kIdleConfig)
        return idle_power;
    require(part.configIndex < power.size(),
            "schedule part references unknown configuration");
    return power[part.configIndex];
}

/** Rate of a part under an estimate/truth vector. */
double
partRate(const Allocation &part, const linalg::Vector &performance)
{
    if (part.configIndex == kIdleConfig)
        return 0.0;
    require(part.configIndex < performance.size(),
            "schedule part references unknown configuration");
    return performance[part.configIndex];
}

} // namespace

Schedule
planMinimalEnergy(const linalg::Vector &performance,
                  const linalg::Vector &power, double idle_power,
                  const PerformanceConstraint &constraint)
{
    obs::Span span(obs::names::kOptimizerPlanSpan, "optimizer");
    span.arg("configs", static_cast<double>(performance.size()));
    planObs().plans.add(1);
    require(performance.size() == power.size() && !performance.empty(),
            "planMinimalEnergy: bad estimate vectors");
    require(constraint.deadlineSeconds > 0.0,
            "planMinimalEnergy: deadline must be > 0");
    require(constraint.work >= 0.0,
            "planMinimalEnergy: work must be >= 0");
    require(idle_power >= 0.0,
            "planMinimalEnergy: idle power must be >= 0");

    const double target_rate =
        constraint.work / constraint.deadlineSeconds;

    // Pareto frontier, then lower hull rooted at the idle point.
    const std::vector<TradeoffPoint> frontier =
        paretoFrontier(performance, power);
    const std::vector<TradeoffPoint> hull =
        lowerConvexHull(frontier, idle_power);
    invariant(!hull.empty(), "planMinimalEnergy: empty hull");

    Schedule plan;
    const TradeoffPoint &fastest = hull.back();
    if (target_rate >= fastest.performance) {
        // Cannot (or exactly) meet the demand: run flat out.
        plan.parts.push_back(
            {fastest.configIndex, constraint.deadlineSeconds});
        plan.predictedEnergy =
            fastest.power * constraint.deadlineSeconds;
        plan.feasible = target_rate <= fastest.performance * (1 + 1e-12);
        if (!plan.feasible)
            planObs().infeasible.add(1);
        return plan;
    }

    // Walk the hull for the segment [a, b] bracketing the target
    // rate; time-mixing its endpoints is the LP optimum.
    std::size_t seg = 0;
    while (seg + 1 < hull.size() &&
           hull[seg + 1].performance < target_rate) {
        ++seg;
    }
    const TradeoffPoint &a = hull[seg];
    const TradeoffPoint &b = hull[seg + 1];
    invariant(a.performance <= target_rate &&
                  target_rate <= b.performance,
              "hull walk failed to bracket the target rate");

    const double t = constraint.deadlineSeconds;
    // t_b r_b + t_a r_a = W with t_a + t_b = T.
    const double t_b =
        (constraint.work - a.performance * t) /
        (b.performance - a.performance);
    const double t_a = t - t_b;

    if (t_a > 0.0)
        plan.parts.push_back({a.configIndex, t_a});
    if (t_b > 0.0)
        plan.parts.push_back({b.configIndex, t_b});
    plan.predictedEnergy = std::max(t_a, 0.0) * a.power +
                           std::max(t_b, 0.0) * b.power;
    plan.feasible = true;
    return plan;
}

ExecutionResult
executeSchedule(const Schedule &schedule,
                const linalg::Vector &true_performance,
                const linalg::Vector &true_power, double idle_power,
                const PerformanceConstraint &constraint)
{
    require(true_performance.size() == true_power.size(),
            "executeSchedule: bad truth vectors");

    ExecutionResult result;
    double work_left = constraint.work;
    double now = 0.0;
    double energy = 0.0;

    // Track the part with the highest true rate for overtime; the
    // planner would keep running its (believed-)fastest choice.
    std::size_t fallback = kIdleConfig;
    double fallback_rate = 0.0;

    for (const Allocation &part : schedule.parts) {
        require(part.seconds >= 0.0,
                "executeSchedule: negative allocation");
        const double rate = partRate(part, true_performance);
        const double watts =
            partPower(part, true_power, idle_power);
        if (part.configIndex != kIdleConfig && rate > fallback_rate) {
            fallback_rate = rate;
            fallback = part.configIndex;
        }

        double dt = part.seconds;
        if (rate > 0.0 && rate * dt >= work_left) {
            // Work completes inside this part.
            dt = work_left / rate;
            energy += watts * dt;
            now += dt;
            work_left = 0.0;
            break;
        }
        energy += watts * dt;
        now += dt;
        work_left -= rate * dt;
    }

    if (work_left > 1e-12) {
        // The plan ran out before the work did: keep running the
        // fastest part past the deadline.
        if (fallback == kIdleConfig || fallback_rate <= 0.0) {
            // Degenerate plan (pure idle): run the true-fastest
            // configuration — the system cannot sit idle forever.
            for (std::size_t c = 0; c < true_performance.size(); ++c) {
                if (true_performance[c] > fallback_rate) {
                    fallback_rate = true_performance[c];
                    fallback = c;
                }
            }
        }
        require(fallback_rate > 0.0,
                "executeSchedule: no configuration makes progress");
        const double dt = work_left / fallback_rate;
        energy += true_power[fallback] * dt;
        now += dt;
        work_left = 0.0;
    }

    result.completionSeconds = now;
    result.deadlineMet =
        now <= constraint.deadlineSeconds * (1.0 + 1e-9);

    // Idle out the remainder of the deadline window.
    if (now < constraint.deadlineSeconds)
        energy += idle_power * (constraint.deadlineSeconds - now);

    result.energyJoules = energy;
    return result;
}

ExecutionResult
executeScheduleGuarded(const Schedule &schedule,
                       const linalg::Vector &true_performance,
                       const linalg::Vector &true_power,
                       double idle_power,
                       const PerformanceConstraint &constraint,
                       std::size_t control_periods)
{
    require(true_performance.size() == true_power.size() &&
                !true_performance.empty(),
            "executeScheduleGuarded: bad truth vectors");
    require(control_periods >= 1,
            "executeScheduleGuarded: need >= 1 control period");
    require(constraint.deadlineSeconds > 0.0,
            "executeScheduleGuarded: deadline must be > 0");

    // The guard escalates along the true frontier (the runtime keeps
    // measuring, so by the time it needs a faster configuration it
    // knows the real rates).
    const std::vector<TradeoffPoint> frontier =
        paretoFrontier(true_performance, true_power);

    // Expand the plan into a time -> config lookup.
    struct Piece
    {
        double until;
        std::size_t config;
    };
    std::vector<Piece> pieces;
    double plan_end = 0.0;
    for (const Allocation &part : schedule.parts) {
        require(part.seconds >= 0.0,
                "executeScheduleGuarded: negative allocation");
        plan_end += part.seconds;
        pieces.push_back({plan_end, part.configIndex});
    }
    auto planned_at = [&](double t) -> std::size_t {
        for (const Piece &p : pieces)
            if (t < p.until)
                return p.config;
        return pieces.empty() ? kIdleConfig : pieces.back().config;
    };
    // End of the plan piece containing t (so control steps never
    // straddle a planned switch — keeps execution of an exact plan
    // free of quantization error).
    auto piece_end_at = [&](double t) {
        for (const Piece &p : pieces)
            if (t < p.until)
                return p.until;
        return constraint.deadlineSeconds;
    };
    // Work the rest of the plan can still deliver (at true rates)
    // between time t and the deadline. The guard only overrides the
    // plan when this falls short of the remaining work: a correct
    // plan that back-loads its fast phase must be left alone.
    auto plan_capacity = [&](double t) {
        double cap = 0.0;
        double from = t;
        for (const Piece &p : pieces) {
            const double until =
                std::min(p.until, constraint.deadlineSeconds);
            if (until <= from)
                continue;
            if (p.config != kIdleConfig)
                cap += true_performance[p.config] * (until - from);
            from = until;
        }
        return cap;
    };

    const double dt =
        constraint.deadlineSeconds / static_cast<double>(control_periods);

    ExecutionResult result;
    double work_left = constraint.work;
    double now = 0.0;
    double energy = 0.0;

    // Steps shorten at plan-piece boundaries, so allow a few extra
    // iterations beyond the nominal period count.
    const std::size_t max_steps = control_periods + pieces.size() + 8;
    for (std::size_t k = 0;
         k < max_steps && work_left > 1e-12 &&
         now < constraint.deadlineSeconds - 1e-12;
         ++k) {
        // Snap onto a plan boundary when floating accumulation left
        // us within epsilon of one, so the period charges the right
        // piece.
        const double to_boundary = piece_end_at(now) - now;
        if (to_boundary > 0.0 && to_boundary < 1e-9)
            now += to_boundary;

        // The snap may have carried `now` onto (or a hair past) the
        // deadline when a plan piece ends within epsilon of it.
        // Dividing by the remaining time would then produce a
        // negative or unbounded required rate and a negative step
        // that walks time backwards; the window is over, so leave the
        // loop and let the overtime block below finish the work.
        const double time_left = constraint.deadlineSeconds - now;
        if (time_left <= 1e-12)
            break;
        const double required = work_left / time_left;

        std::size_t cfg = planned_at(now);
        double rate = cfg == kIdleConfig ? 0.0 : true_performance[cfg];
        if (plan_capacity(now) + 1e-9 < work_left &&
            rate + 1e-12 < required) {
            // Guard: the plan cannot finish on time on its own;
            // switch to the cheapest true-frontier configuration
            // meeting the required rate (the fastest if none does).
            cfg = frontier.back().configIndex;
            for (const TradeoffPoint &p : frontier) {
                if (p.performance >= required) {
                    cfg = p.configIndex;
                    break;
                }
            }
            rate = true_performance[cfg];
        }
        const double watts =
            cfg == kIdleConfig ? idle_power : true_power[cfg];

        double step = std::min(dt, constraint.deadlineSeconds - now);
        const double boundary = piece_end_at(now) - now;
        if (boundary > 1e-12)
            step = std::min(step, boundary);
        if (rate > 0.0 && rate * step >= work_left)
            step = work_left / rate;
        energy += watts * step;
        now += step;
        work_left -= rate * step;
    }

    if (work_left > 1e-12) {
        // Physically infeasible demand: finish flat out, late. A
        // zero-rate frontier (no configuration makes progress) would
        // divide the remaining work by zero and return a non-finite
        // completion time; fail loudly instead, matching
        // executeSchedule's contract.
        const TradeoffPoint &fastest = frontier.back();
        require(fastest.performance > 0.0,
                "executeScheduleGuarded: no configuration makes "
                "progress");
        const double extra = work_left / fastest.performance;
        energy += true_power[fastest.configIndex] * extra;
        now += extra;
        work_left = 0.0;
    }

    result.completionSeconds = now;
    result.deadlineMet =
        now <= constraint.deadlineSeconds * (1.0 + 1e-9);
    if (now < constraint.deadlineSeconds)
        energy += idle_power * (constraint.deadlineSeconds - now);
    result.energyJoules = energy;
    return result;
}

} // namespace leo::optimizer

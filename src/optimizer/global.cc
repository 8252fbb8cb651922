/**
 * @file
 * Implementation of global multi-app co-scheduling.
 */

#include "optimizer/global.hh"

#include <algorithm>
#include <cmath>

#include "linalg/error.hh"
#include "linalg/simplex.hh"
#include "obs/obs.hh"
#include "optimizer/pareto.hh"

namespace leo::optimizer
{

namespace
{

/** Registry instruments of the global planner (lazily registered). */
struct GlobalObs
{
    obs::Counter plans = obs::Registry::global().counter(
        obs::names::kOptimizerGlobalPlansComputed);
    obs::Counter infeasible = obs::Registry::global().counter(
        obs::names::kOptimizerGlobalPlansInfeasible);
};

GlobalObs &
globalObs()
{
    static GlobalObs o;
    return o;
}

/** One LP decision variable: app x frontier-config x interval. */
struct Var
{
    std::size_t app = 0;
    std::size_t frontierIndex = 0;
    std::size_t interval = 0;
    double rate = 0.0;
    double watts = 0.0;
};

/** Per-app working state shared by the global and greedy planners. */
struct AppState
{
    /** Positive-rate Pareto points, sorted by increasing rate. */
    std::vector<TradeoffPoint> frontier;
    /** Intervals this app may use: every i with ends[i] <= deadline. */
    std::size_t numIntervals = 0;
};

void
validate(const std::vector<TenantDemand> &demands, double idle_power,
         const GlobalPlanOptions &options)
{
    require(!demands.empty(), "planGlobalSchedule: no demands");
    require(idle_power >= 0.0,
            "planGlobalSchedule: idle power must be >= 0");
    require(!std::isnan(options.powerCapWatts),
            "planGlobalSchedule: power cap is NaN");
    for (const TenantDemand &d : demands) {
        require(d.performance.size() == d.power.size() &&
                    !d.performance.empty(),
                "planGlobalSchedule: bad estimate vectors");
        require(d.constraint.deadlineSeconds > 0.0,
                "planGlobalSchedule: deadline must be > 0");
        require(d.constraint.work >= 0.0,
                "planGlobalSchedule: work must be >= 0");
    }
}

/** Sorted unique deadlines = the interval end boundaries. */
std::vector<double>
intervalEnds(const std::vector<TenantDemand> &demands)
{
    std::vector<double> ends;
    ends.reserve(demands.size());
    for (const TenantDemand &d : demands)
        ends.push_back(d.constraint.deadlineSeconds);
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end()), ends.end());
    return ends;
}

std::vector<AppState>
buildStates(const std::vector<TenantDemand> &demands,
            const std::vector<double> &ends)
{
    std::vector<AppState> states(demands.size());
    for (std::size_t a = 0; a < demands.size(); ++a) {
        std::vector<TradeoffPoint> frontier =
            paretoFrontier(demands[a].performance, demands[a].power);
        for (const TradeoffPoint &p : frontier)
            if (p.performance > 0.0)
                states[a].frontier.push_back(p);
        // Boundaries are the deadline values themselves, so the exact
        // comparison is reliable: every app gets >= 1 interval.
        std::size_t n = 0;
        while (n < ends.size() &&
               ends[n] <= demands[a].constraint.deadlineSeconds)
            ++n;
        states[a].numIntervals = n;
    }
    return states;
}

/** Variables for `apps`, app-major, frontier then interval order. */
std::vector<Var>
buildVars(const std::vector<std::size_t> &apps,
          const std::vector<AppState> &states)
{
    std::vector<Var> vars;
    for (std::size_t a : apps) {
        const AppState &st = states[a];
        for (std::size_t f = 0; f < st.frontier.size(); ++f)
            for (std::size_t i = 0; i < st.numIntervals; ++i)
                vars.push_back({a, f, i, st.frontier[f].performance,
                                st.frontier[f].power});
    }
    return vars;
}

/**
 * Build and solve the co-scheduling LP for `apps` against the given
 * per-interval time and (optional) cap-energy budgets. The same rows
 * serve the global planner (all apps, full budgets) and the greedy
 * baseline (one app, leftover budgets).
 */
linalg::LpSolution
solveCoSchedule(const std::vector<std::size_t> &apps,
                const std::vector<Var> &vars,
                const std::vector<TenantDemand> &demands,
                const std::vector<double> &time_budget,
                const std::vector<double> &cap_budget,
                double idle_power)
{
    using linalg::LinearProgram;
    using linalg::Vector;

    const std::size_t v_count = vars.size();
    LinearProgram lp(v_count);

    Vector c(v_count, 0.0);
    for (std::size_t v = 0; v < v_count; ++v)
        c[v] = vars[v].watts - idle_power;
    lp.setObjective(c);

    // Work equalities, one per app — deliberately kept even when an
    // app has no variables (zero-rate space) or zero work: the row
    // degenerates to 0 = W_a and the simplex now classifies that
    // correctly (redundant when W_a = 0, infeasible otherwise).
    for (std::size_t a : apps) {
        Vector row(v_count, 0.0);
        for (std::size_t v = 0; v < v_count; ++v)
            if (vars[v].app == a)
                row[v] = vars[v].rate;
        lp.addEquality(row, demands[a].constraint.work);
    }

    // Machine exclusivity: one app at a time within each interval.
    for (std::size_t i = 0; i < time_budget.size(); ++i) {
        Vector row(v_count, 0.0);
        for (std::size_t v = 0; v < v_count; ++v)
            if (vars[v].interval == i)
                row[v] = 1.0;
        lp.addInequality(row, std::max(time_budget[i], 0.0));
    }

    // Average-power cap per interval, as an energy-above-idle budget.
    for (std::size_t i = 0; i < cap_budget.size(); ++i) {
        Vector row(v_count, 0.0);
        for (std::size_t v = 0; v < v_count; ++v)
            if (vars[v].interval == i)
                row[v] = vars[v].watts - idle_power;
        lp.addInequality(row, cap_budget[i]);
    }

    return lp.solve();
}

/** Per-app usage extracted from an LP solution. */
struct AppUsage
{
    double busySeconds = 0.0;
    double activeEnergy = 0.0;
    /** Seconds per frontier point (frontier-aligned). */
    std::vector<double> configSeconds;
};

/**
 * Turn one app's usage into a Schedule covering [0, deadline]:
 * frontier parts in increasing-rate order, then the idle tail. Its
 * predictedEnergy spans the app's whole window, directly comparable
 * with planMinimalEnergy.
 */
Schedule
scheduleFromUsage(const AppState &st, const AppUsage &use,
                  double deadline, double idle_power)
{
    Schedule plan;
    for (std::size_t f = 0; f < st.frontier.size(); ++f)
        if (use.configSeconds[f] > 1e-12)
            plan.parts.push_back(
                {st.frontier[f].configIndex, use.configSeconds[f]});
    const double tail = std::max(deadline - use.busySeconds, 0.0);
    if (tail > 0.0)
        plan.parts.push_back({kIdleConfig, tail});
    plan.predictedEnergy = use.activeEnergy + idle_power * tail;
    plan.feasible = true;
    return plan;
}

/** Standalone best-effort fallback when the shared LP is infeasible. */
GlobalSchedule
fallbackPerApp(const std::vector<TenantDemand> &demands,
               double idle_power)
{
    globalObs().infeasible.add(1);
    GlobalSchedule g;
    g.feasible = false;
    g.predictedEnergy = 0.0;
    for (const TenantDemand &d : demands) {
        g.perTenant.push_back(planMinimalEnergy(
            d.performance, d.power, idle_power, d.constraint));
        g.predictedEnergy += g.perTenant.back().predictedEnergy;
    }
    return g;
}

} // namespace

GlobalSchedule
planGlobalSchedule(const std::vector<TenantDemand> &demands,
                   double idle_power, const GlobalPlanOptions &options)
{
    obs::Span span(obs::names::kOptimizerGlobalPlanSpan, "optimizer");
    span.arg("apps", static_cast<double>(demands.size()));
    globalObs().plans.add(1);
    validate(demands, idle_power, options);

    const bool capped = std::isfinite(options.powerCapWatts);
    if (demands.size() == 1 && !capped) {
        // Single app, no cap: the program *is* Equation (1); the hull
        // walk solves it exactly (and cheaper than the simplex).
        const TenantDemand &d = demands.front();
        GlobalSchedule g;
        g.perTenant.push_back(planMinimalEnergy(
            d.performance, d.power, idle_power, d.constraint));
        g.predictedEnergy = g.perTenant.back().predictedEnergy;
        g.feasible = g.perTenant.back().feasible;
        if (!g.feasible)
            globalObs().infeasible.add(1);
        return g;
    }

    const std::vector<double> ends = intervalEnds(demands);
    const std::vector<AppState> states = buildStates(demands, ends);

    std::vector<std::size_t> apps(demands.size());
    for (std::size_t a = 0; a < demands.size(); ++a)
        apps[a] = a;
    const std::vector<Var> vars = buildVars(apps, states);

    if (vars.empty()) {
        // No app can make progress anywhere. Feasible only if nobody
        // needs to: everything idles out its window.
        bool all_zero = true;
        for (const TenantDemand &d : demands)
            all_zero = all_zero && d.constraint.work == 0.0;
        if (!all_zero)
            return fallbackPerApp(demands, idle_power);
        GlobalSchedule g;
        for (const TenantDemand &d : demands) {
            Schedule s;
            s.parts.push_back(
                {kIdleConfig, d.constraint.deadlineSeconds});
            s.predictedEnergy =
                idle_power * d.constraint.deadlineSeconds;
            g.perTenant.push_back(std::move(s));
        }
        g.predictedEnergy = idle_power * ends.back();
        for (std::size_t i = 0; i < ends.size(); ++i)
            g.intervals.push_back({ends[i], 0.0, 0.0});
        return g;
    }

    std::vector<double> time_budget(ends.size());
    std::vector<double> cap_budget;
    for (std::size_t i = 0; i < ends.size(); ++i)
        time_budget[i] = ends[i] - (i == 0 ? 0.0 : ends[i - 1]);
    if (capped) {
        cap_budget.resize(ends.size());
        for (std::size_t i = 0; i < ends.size(); ++i)
            cap_budget[i] =
                (options.powerCapWatts - idle_power) * time_budget[i];
    }

    const linalg::LpSolution sol = solveCoSchedule(
        apps, vars, demands, time_budget, cap_budget, idle_power);
    if (sol.status != linalg::LpStatus::Optimal)
        return fallbackPerApp(demands, idle_power);

    std::vector<AppUsage> usage(demands.size());
    for (std::size_t a = 0; a < demands.size(); ++a)
        usage[a].configSeconds.assign(states[a].frontier.size(), 0.0);
    GlobalSchedule g;
    for (std::size_t i = 0; i < ends.size(); ++i)
        g.intervals.push_back({ends[i], 0.0, 0.0});

    double total_busy = 0.0;
    double total_active = 0.0;
    for (std::size_t v = 0; v < vars.size(); ++v) {
        const double secs = std::max(sol.x[v], 0.0);
        if (secs <= 0.0)
            continue;
        AppUsage &u = usage[vars[v].app];
        u.busySeconds += secs;
        u.activeEnergy += vars[v].watts * secs;
        u.configSeconds[vars[v].frontierIndex] += secs;
        g.intervals[vars[v].interval].busySeconds += secs;
        g.intervals[vars[v].interval].activeEnergyJoules +=
            vars[v].watts * secs;
        total_busy += secs;
        total_active += vars[v].watts * secs;
    }

    for (std::size_t a = 0; a < demands.size(); ++a)
        g.perTenant.push_back(scheduleFromUsage(
            states[a], usage[a],
            demands[a].constraint.deadlineSeconds, idle_power));
    g.predictedEnergy =
        total_active +
        idle_power * std::max(ends.back() - total_busy, 0.0);
    g.feasible = true;
    return g;
}

GlobalSchedule
planPerAppGreedy(const std::vector<TenantDemand> &demands,
                 double idle_power, const GlobalPlanOptions &options)
{
    validate(demands, idle_power, options);

    const bool capped = std::isfinite(options.powerCapWatts);
    const std::vector<double> ends = intervalEnds(demands);
    const std::vector<AppState> states = buildStates(demands, ends);

    std::vector<double> time_budget(ends.size());
    std::vector<double> cap_budget;
    for (std::size_t i = 0; i < ends.size(); ++i)
        time_budget[i] = ends[i] - (i == 0 ? 0.0 : ends[i - 1]);
    if (capped) {
        cap_budget.resize(ends.size());
        for (std::size_t i = 0; i < ends.size(); ++i)
            cap_budget[i] =
                (options.powerCapWatts - idle_power) * time_budget[i];
    }

    GlobalSchedule g;
    g.perTenant.resize(demands.size());
    for (std::size_t i = 0; i < ends.size(); ++i)
        g.intervals.push_back({ends[i], 0.0, 0.0});

    double total_busy = 0.0;
    double total_active = 0.0;
    for (std::size_t a = 0; a < demands.size(); ++a) {
        const TenantDemand &d = demands[a];
        if (states[a].frontier.empty()) {
            if (d.constraint.work == 0.0) {
                Schedule s;
                s.parts.push_back(
                    {kIdleConfig, d.constraint.deadlineSeconds});
                s.predictedEnergy =
                    idle_power * d.constraint.deadlineSeconds;
                g.perTenant[a] = std::move(s);
            } else {
                g.perTenant[a] = planMinimalEnergy(
                    d.performance, d.power, idle_power, d.constraint);
                g.feasible = false;
            }
            continue;
        }

        const std::vector<std::size_t> solo{a};
        const std::vector<Var> vars = buildVars(solo, states);
        std::vector<double> tb(time_budget.begin(),
                               time_budget.begin() +
                                   static_cast<std::ptrdiff_t>(
                                       states[a].numIntervals));
        std::vector<double> cb;
        if (capped)
            cb.assign(cap_budget.begin(),
                      cap_budget.begin() +
                          static_cast<std::ptrdiff_t>(
                              states[a].numIntervals));
        const linalg::LpSolution sol = solveCoSchedule(
            solo, vars, demands, tb, cb, idle_power);
        if (sol.status != linalg::LpStatus::Optimal) {
            // Earlier apps starved this one: best effort, standalone.
            g.perTenant[a] = planMinimalEnergy(
                d.performance, d.power, idle_power, d.constraint);
            g.feasible = false;
            continue;
        }

        AppUsage u;
        u.configSeconds.assign(states[a].frontier.size(), 0.0);
        for (std::size_t v = 0; v < vars.size(); ++v) {
            const double secs = std::max(sol.x[v], 0.0);
            if (secs <= 0.0)
                continue;
            u.busySeconds += secs;
            u.activeEnergy += vars[v].watts * secs;
            u.configSeconds[vars[v].frontierIndex] += secs;
            g.intervals[vars[v].interval].busySeconds += secs;
            g.intervals[vars[v].interval].activeEnergyJoules +=
                vars[v].watts * secs;
            time_budget[vars[v].interval] = std::max(
                time_budget[vars[v].interval] - secs, 0.0);
            if (capped)
                cap_budget[vars[v].interval] = std::max(
                    cap_budget[vars[v].interval] -
                        (vars[v].watts - idle_power) * secs,
                    0.0);
            total_busy += secs;
            total_active += vars[v].watts * secs;
        }
        g.perTenant[a] = scheduleFromUsage(
            states[a], u, d.constraint.deadlineSeconds, idle_power);
    }

    if (g.feasible) {
        g.predictedEnergy =
            total_active +
            idle_power * std::max(ends.back() - total_busy, 0.0);
    } else {
        g.predictedEnergy = 0.0;
        for (const Schedule &s : g.perTenant)
            g.predictedEnergy += s.predictedEnergy;
    }
    return g;
}

} // namespace leo::optimizer

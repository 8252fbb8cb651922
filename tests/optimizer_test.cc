/**
 * @file
 * Unit tests for the Pareto/hull/scheduling optimizer.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "linalg/error.hh"
#include "linalg/simplex.hh"
#include "optimizer/global.hh"
#include "optimizer/pareto.hh"
#include "optimizer/schedule.hh"
#include "stats/rng.hh"

using namespace leo;
using linalg::Vector;
using optimizer::kIdleConfig;
using optimizer::PerformanceConstraint;
using optimizer::TradeoffPoint;

// --------------------------------------------------------------- Pareto

TEST(Pareto, DominatedPointsRemoved)
{
    // Config 1 dominates config 0 (faster AND cheaper); config 2 is
    // fastest but expensive.
    Vector perf{1.0, 2.0, 3.0};
    Vector power{100.0, 90.0, 200.0};
    auto front = optimizer::paretoFrontier(perf, power);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].configIndex, 1u);
    EXPECT_EQ(front[1].configIndex, 2u);
}

TEST(Pareto, FrontierSortedAndMonotone)
{
    stats::Rng rng(5);
    Vector perf(50), power(50);
    for (int i = 0; i < 50; ++i) {
        perf[i] = rng.uniform(1.0, 20.0);
        power[i] = rng.uniform(80.0, 300.0);
    }
    auto front = optimizer::paretoFrontier(perf, power);
    ASSERT_GE(front.size(), 1u);
    for (std::size_t i = 0; i + 1 < front.size(); ++i) {
        EXPECT_LT(front[i].performance, front[i + 1].performance);
        EXPECT_LT(front[i].power, front[i + 1].power);
    }
}

TEST(Pareto, FrontierPointsNotDominated)
{
    stats::Rng rng(6);
    Vector perf(100), power(100);
    for (int i = 0; i < 100; ++i) {
        perf[i] = rng.uniform(1.0, 20.0);
        power[i] = rng.uniform(80.0, 300.0);
    }
    auto front = optimizer::paretoFrontier(perf, power);
    for (const auto &f : front) {
        for (std::size_t c = 0; c < 100; ++c) {
            const bool dominates =
                perf[c] >= f.performance && power[c] < f.power;
            EXPECT_FALSE(dominates)
                << "config " << c << " dominates frontier point";
        }
    }
}

// ----------------------------------------------------------------- Hull

TEST(Hull, ConvexAndRootedAtIdle)
{
    std::vector<TradeoffPoint> pts{
        {0, 1.0, 100.0}, {1, 2.0, 120.0}, {2, 3.0, 200.0},
        {3, 2.5, 190.0},                          // above the hull
    };
    auto hull = optimizer::lowerConvexHull(pts, 80.0);
    ASSERT_GE(hull.size(), 2u);
    EXPECT_EQ(hull.front().configIndex, kIdleConfig);
    EXPECT_DOUBLE_EQ(hull.front().performance, 0.0);
    EXPECT_EQ(hull.back().configIndex, 2u);

    // Slopes (Joules per heartbeat) are non-decreasing: convexity.
    for (std::size_t i = 0; i + 2 < hull.size(); ++i) {
        const double s1 =
            (hull[i + 1].power - hull[i].power) /
            (hull[i + 1].performance - hull[i].performance);
        const double s2 =
            (hull[i + 2].power - hull[i + 1].power) /
            (hull[i + 2].performance - hull[i + 1].performance);
        EXPECT_LE(s1, s2 + 1e-9);
    }
}

TEST(Hull, HullIsBelowAllPoints)
{
    stats::Rng rng(7);
    std::vector<TradeoffPoint> pts;
    for (std::size_t c = 0; c < 60; ++c)
        pts.push_back({c, rng.uniform(0.5, 10.0),
                       rng.uniform(90.0, 250.0)});
    auto hull = optimizer::lowerConvexHull(pts, 85.0);

    auto hull_power_at = [&](double perf) {
        for (std::size_t i = 0; i + 1 < hull.size(); ++i) {
            if (perf >= hull[i].performance &&
                perf <= hull[i + 1].performance) {
                const double t = (perf - hull[i].performance) /
                                 (hull[i + 1].performance -
                                  hull[i].performance);
                return hull[i].power +
                       t * (hull[i + 1].power - hull[i].power);
            }
        }
        return hull.back().power;
    };
    for (const auto &p : pts) {
        if (p.performance <= hull.back().performance) {
            EXPECT_LE(hull_power_at(p.performance), p.power + 1e-9);
        }
    }
}

TEST(Hull, EqualPerformanceKeepsCheapest)
{
    std::vector<TradeoffPoint> pts{
        {0, 2.0, 150.0}, {1, 2.0, 120.0}, {2, 4.0, 260.0}};
    auto hull = optimizer::lowerConvexHull(pts, 100.0);
    for (const auto &v : hull) {
        if (v.performance == 2.0) {
            EXPECT_EQ(v.configIndex, 1u);
        }
    }
}

// ------------------------------------------------------------- Schedule

TEST(Schedule, MeetsConstraintExactly)
{
    Vector perf{1.0, 2.0, 4.0};
    Vector power{100.0, 130.0, 220.0};
    PerformanceConstraint c{3.0 * 10.0, 10.0}; // rate 3 for 10 s
    auto plan =
        optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    double work = 0.0, time = 0.0;
    for (const auto &part : plan.parts) {
        time += part.seconds;
        if (part.configIndex != kIdleConfig)
            work += perf[part.configIndex] * part.seconds;
    }
    EXPECT_NEAR(work, c.work, 1e-9);
    EXPECT_LE(time, c.deadlineSeconds + 1e-9);
}

TEST(Schedule, InfeasibleDemandRunsFlatOut)
{
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{100.0, 10.0}; // rate 10 >> max 2
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_FALSE(plan.feasible);
    ASSERT_EQ(plan.parts.size(), 1u);
    EXPECT_EQ(plan.parts[0].configIndex, 1u);
    EXPECT_DOUBLE_EQ(plan.parts[0].seconds, 10.0);
}

TEST(Schedule, LowUtilizationMixesWithIdle)
{
    Vector perf{2.0, 4.0};
    Vector power{120.0, 200.0};
    // Demand far below the slowest config: mix with idle.
    PerformanceConstraint c{0.5 * 10.0, 10.0};
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    bool has_idle = false;
    for (const auto &p : plan.parts)
        has_idle |= p.configIndex == kIdleConfig;
    EXPECT_TRUE(has_idle);
}

TEST(Schedule, HullWalkMatchesSimplex)
{
    // Property: the hull-walk solution of Equation (1) equals the
    // exact LP optimum, with idle as an explicit zero-rate config.
    stats::Rng rng(13);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 12;
        Vector perf(n), power(n);
        for (std::size_t i = 0; i < n; ++i) {
            perf[i] = rng.uniform(0.5, 8.0);
            power[i] = 85.0 + perf[i] * rng.uniform(8.0, 30.0);
        }
        const double idle = 85.0;
        const double t_total = 10.0;
        const double rate = rng.uniform(0.2, 7.5);
        PerformanceConstraint c{rate * t_total, t_total};

        auto plan = optimizer::planMinimalEnergy(perf, power, idle, c);
        if (!plan.feasible)
            continue;

        // LP over n configs + idle, with sum t = T exactly (slack is
        // idle) and idle power in the objective.
        linalg::LinearProgram lp(n + 1);
        Vector obj(n + 1), rates(n + 1), ones(n + 1, 1.0);
        for (std::size_t i = 0; i < n; ++i) {
            obj[i] = power[i];
            rates[i] = perf[i];
        }
        obj[n] = idle;
        rates[n] = 0.0;
        lp.setObjective(obj);
        lp.addEquality(rates, c.work);
        lp.addEquality(ones, t_total);
        auto sol = lp.solve();
        ASSERT_EQ(sol.status, linalg::LpStatus::Optimal);

        // Hull plan energy including idle slack.
        double plan_energy = plan.predictedEnergy;
        double planned_time = 0.0;
        for (const auto &p : plan.parts)
            planned_time += p.seconds;
        plan_energy += (t_total - planned_time) * idle;

        EXPECT_NEAR(plan_energy, sol.objective,
                    1e-6 * sol.objective)
            << "trial " << trial;
    }
}

// ------------------------------------------------------------ Execution

TEST(Execute, PerfectEstimatesMeetDeadline)
{
    Vector perf{1.0, 2.0, 4.0};
    Vector power{100.0, 130.0, 220.0};
    PerformanceConstraint c{30.0, 10.0};
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    auto result =
        optimizer::executeSchedule(plan, perf, power, 85.0, c);
    EXPECT_TRUE(result.deadlineMet);
    EXPECT_NEAR(result.completionSeconds, 10.0, 1e-6);
    // Energy equals prediction plus idle slack (none here).
    EXPECT_NEAR(result.energyJoules, plan.predictedEnergy, 1e-6);
}

TEST(Execute, OverestimatedPerformanceMissesDeadline)
{
    Vector est_perf{4.0};
    Vector true_perf{2.0}; // half as fast as believed
    Vector power{200.0};
    PerformanceConstraint c{40.0, 10.0};
    auto plan =
        optimizer::planMinimalEnergy(est_perf, power, 85.0, c);
    auto result = optimizer::executeSchedule(plan, true_perf, power,
                                             85.0, c);
    EXPECT_FALSE(result.deadlineMet);
    EXPECT_GT(result.completionSeconds, 10.0);
    // Overtime energy accrues past the deadline.
    EXPECT_GT(result.energyJoules, plan.predictedEnergy);
}

TEST(Execute, UnderestimatedPerformanceWastesEnergyButMeets)
{
    Vector est_perf{1.0, 2.0};
    Vector true_perf{2.0, 4.0}; // twice as fast as believed
    Vector power{120.0, 200.0};
    PerformanceConstraint c{15.0, 10.0};
    auto plan =
        optimizer::planMinimalEnergy(est_perf, power, 85.0, c);
    auto result = optimizer::executeSchedule(plan, true_perf, power,
                                             85.0, c);
    EXPECT_TRUE(result.deadlineMet);
    EXPECT_LT(result.completionSeconds, 10.0);
}

TEST(Execute, RaceToIdleWastesEnergyVsOptimal)
{
    // The Section 2 story: with a convex tradeoff, racing costs more
    // than pacing.
    Vector perf{1.0, 2.0, 3.0};
    Vector power{100.0, 125.0, 250.0};
    PerformanceConstraint c{10.0, 10.0}; // rate 1: lowest config fits
    const double idle = 85.0;
    auto optimal = optimizer::executeSchedule(
        optimizer::planMinimalEnergy(perf, power, idle, c), perf,
        power, idle, c);
    // Race as the Fig. 10 driver runs it (experiments/energy.cc): the
    // all-resources configuration, the last index, for the deadline.
    optimizer::Schedule plan;
    plan.parts.push_back({perf.size() - 1, c.deadlineSeconds});
    auto race = optimizer::executeSchedule(plan, perf, power, idle, c);
    EXPECT_TRUE(optimal.deadlineMet);
    EXPECT_TRUE(race.deadlineMet);
    EXPECT_GT(race.energyJoules, optimal.energyJoules);
}

TEST(Execute, PureIdlePlanFallsBackToFastest)
{
    // A degenerate plan with no productive part must still finish.
    Vector perf{2.0, 5.0};
    Vector power{120.0, 210.0};
    optimizer::Schedule plan;
    plan.parts.push_back({kIdleConfig, 1.0});
    PerformanceConstraint c{10.0, 10.0};
    auto result =
        optimizer::executeSchedule(plan, perf, power, 85.0, c);
    EXPECT_GT(result.energyJoules, 0.0);
    EXPECT_NEAR(result.completionSeconds, 1.0 + 10.0 / 5.0, 1e-9);
}

// ---------------------------------------------------- Guarded executor

TEST(GuardedExecute, BadPlanMeetsDeadlineAndCostsMore)
{
    // Truth: three configs; the plan (from a delusional estimate)
    // schedules only the slowest. The guard must escalate, meet the
    // deadline, and cost at least the optimum.
    Vector perf{1.0, 2.0, 4.0};
    Vector power{100.0, 130.0, 220.0};
    PerformanceConstraint c{30.0, 10.0}; // rate 3

    optimizer::Schedule bad;
    bad.parts.push_back({0, 10.0}); // believes config 0 suffices

    auto guarded = optimizer::executeScheduleGuarded(
        bad, perf, power, 85.0, c);
    EXPECT_TRUE(guarded.deadlineMet);

    auto best = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    auto best_run = optimizer::executeScheduleGuarded(
        best, perf, power, 85.0, c);
    EXPECT_GE(guarded.energyJoules, best_run.energyJoules - 1e-6);

    // The open-loop executor would have been late instead.
    auto open = optimizer::executeSchedule(bad, perf, power, 85.0, c);
    EXPECT_FALSE(open.deadlineMet);
}

TEST(GuardedExecute, AccuratePlanUntouched)
{
    Vector perf{1.0, 2.0, 4.0};
    Vector power{100.0, 130.0, 220.0};
    PerformanceConstraint c{30.0, 10.0};
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    auto guarded = optimizer::executeScheduleGuarded(
        plan, perf, power, 85.0, c, 1000);
    auto open = optimizer::executeSchedule(plan, perf, power, 85.0, c);
    EXPECT_TRUE(guarded.deadlineMet);
    EXPECT_NEAR(guarded.energyJoules, open.energyJoules,
                0.01 * open.energyJoules);
}

TEST(GuardedExecute, NoEstimateEverBeatsOptimal)
{
    // Property: for random truths and arbitrary (wrong) plans, the
    // guarded energy is never below the guarded optimal energy.
    stats::Rng rng(29);
    for (int trial = 0; trial < 15; ++trial) {
        const std::size_t n = 10;
        Vector perf(n), power(n);
        for (std::size_t i = 0; i < n; ++i) {
            perf[i] = rng.uniform(0.5, 8.0);
            power[i] = 85.0 + perf[i] * rng.uniform(8.0, 30.0);
        }
        PerformanceConstraint c{rng.uniform(0.2, 7.0) * 10.0, 10.0};
        if (c.work / c.deadlineSeconds > perf.max())
            continue;

        // A deliberately wrong plan: random config for the window.
        optimizer::Schedule plan;
        plan.parts.push_back(
            {static_cast<std::size_t>(rng.uniformInt(0, 9)), 10.0});
        auto run = optimizer::executeScheduleGuarded(plan, perf,
                                                     power, 85.0, c);
        EXPECT_TRUE(run.deadlineMet);

        auto best = optimizer::planMinimalEnergy(perf, power, 85.0, c);
        auto best_run = optimizer::executeScheduleGuarded(
            best, perf, power, 85.0, c);
        EXPECT_GE(run.energyJoules,
                  best_run.energyJoules * (1.0 - 1e-9))
            << "trial " << trial;
    }
}

TEST(GuardedExecute, InfeasibleDemandFinishesLate)
{
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{100.0, 10.0}; // rate 10 >> max 2
    optimizer::Schedule plan;
    plan.parts.push_back({1, 10.0});
    auto run =
        optimizer::executeScheduleGuarded(plan, perf, power, 85.0, c);
    EXPECT_FALSE(run.deadlineMet);
    EXPECT_NEAR(run.completionSeconds, 50.0, 1e-6);
}

// ---------------------------------------------------- Degenerate inputs

TEST(Degenerate, SinglePointSpace)
{
    Vector perf{2.0};
    Vector power{120.0};

    auto front = optimizer::paretoFrontier(perf, power);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].configIndex, 0u);

    auto hull = optimizer::lowerConvexHull(front, 85.0);
    ASSERT_EQ(hull.size(), 2u);
    EXPECT_EQ(hull.front().configIndex, kIdleConfig);
    EXPECT_EQ(hull.back().configIndex, 0u);

    PerformanceConstraint c{10.0, 10.0}; // rate 1 <= 2: feasible
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    double busy = 0.0;
    for (const auto &part : plan.parts)
        if (part.configIndex != kIdleConfig)
            busy += part.seconds;
    EXPECT_NEAR(busy * perf[0], c.work, 1e-9);
}

TEST(Degenerate, AllEqualPerformances)
{
    // Every configuration delivers the same rate; the only rational
    // pick is the cheapest, and the planner must not divide by the
    // zero performance gap between hull candidates.
    Vector perf{3.0, 3.0, 3.0, 3.0};
    Vector power{150.0, 110.0, 170.0, 130.0};

    auto front = optimizer::paretoFrontier(perf, power);
    ASSERT_EQ(front.size(), 1u);
    EXPECT_EQ(front[0].configIndex, 1u);

    PerformanceConstraint c{15.0, 10.0}; // rate 1.5 <= 3
    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    for (const auto &part : plan.parts) {
        if (part.configIndex != kIdleConfig) {
            EXPECT_EQ(part.configIndex, 1u);
        }
    }
}

TEST(Degenerate, ZeroWorkIsFreeAndFeasible)
{
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{0.0, 10.0};

    auto plan = optimizer::planMinimalEnergy(perf, power, 85.0, c);
    EXPECT_TRUE(plan.feasible);
    EXPECT_NEAR(plan.predictedEnergy, 85.0 * 10.0, 1e-9);
    auto run = optimizer::executeSchedule(plan, perf, power, 85.0, c);
    EXPECT_TRUE(run.deadlineMet);
}

TEST(Degenerate, IdleCheaperThanEveryConfig)
{
    // Idle power above every configuration's power: the hull is still
    // rooted at the idle pseudo-config and plans stay feasible (the
    // optimizer may simply never idle).
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    const double idle = 500.0;

    auto hull = optimizer::lowerConvexHull(
        optimizer::paretoFrontier(perf, power), idle);
    ASSERT_GE(hull.size(), 2u);
    EXPECT_EQ(hull.front().configIndex, kIdleConfig);

    PerformanceConstraint c{5.0, 10.0}; // rate 0.5
    auto plan = optimizer::planMinimalEnergy(perf, power, idle, c);
    EXPECT_TRUE(plan.feasible);
    EXPECT_TRUE(std::isfinite(plan.predictedEnergy));
    auto run = optimizer::executeSchedule(plan, perf, power, idle, c);
    EXPECT_TRUE(run.deadlineMet);
}

// --------------------------------------- Guarded-executor boundaries

TEST(GuardedBoundary, PlanPieceEndingAtDeadlineStaysFinite)
{
    // A plan whose last piece ends within the boundary-snap epsilon
    // of the deadline: the snap used to carry `now` onto (or past)
    // the deadline, divide the remaining work by a non-positive time
    // and walk time backwards with negative energy. The run must stay
    // finite, monotone and correctly classified.
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{30.0, 10.0}; // needs rate 3 > max 2
    optimizer::Schedule plan;
    plan.parts.push_back({1, 10.0 - 5e-10}); // ends 5e-10 before T
    auto run =
        optimizer::executeScheduleGuarded(plan, perf, power, 85.0, c);
    EXPECT_TRUE(std::isfinite(run.energyJoules));
    EXPECT_TRUE(std::isfinite(run.completionSeconds));
    EXPECT_GT(run.energyJoules, 0.0);
    EXPECT_FALSE(run.deadlineMet); // physically impossible demand
    EXPECT_NEAR(run.completionSeconds, 15.0, 1e-5); // 30 work @ 2/s
}

TEST(GuardedBoundary, ManyTinyPiecesNearDeadlineStayMonotone)
{
    // Several sub-epsilon pieces crowded against the deadline stress
    // the snap repeatedly.
    Vector perf{1.0, 2.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{25.0, 10.0};
    optimizer::Schedule plan;
    plan.parts.push_back({1, 10.0 - 3e-9});
    plan.parts.push_back({0, 1e-9});
    plan.parts.push_back({1, 1e-9});
    plan.parts.push_back({0, 1e-9});
    auto run =
        optimizer::executeScheduleGuarded(plan, perf, power, 85.0, c);
    EXPECT_TRUE(std::isfinite(run.energyJoules));
    EXPECT_GE(run.completionSeconds, 10.0 - 1e-6);
    EXPECT_FALSE(run.deadlineMet);
}

TEST(GuardedBoundary, ZeroRateFrontierWithWorkFailsLoudly)
{
    // No configuration makes progress but work remains: the old code
    // divided by the frontier's zero rate and returned an infinite
    // completion time. The contract (matching executeSchedule) is a
    // loud FatalError.
    Vector perf{0.0, 0.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{1.0, 10.0};
    optimizer::Schedule plan;
    plan.parts.push_back({1, 10.0});
    EXPECT_THROW(optimizer::executeScheduleGuarded(plan, perf, power,
                                                   85.0, c),
                 FatalError);
}

TEST(GuardedBoundary, ZeroRateFrontierWithZeroWorkIdlesOut)
{
    // Zero work needs no progress: the guarded run just idles to the
    // deadline, whatever the (useless) plan says.
    Vector perf{0.0, 0.0};
    Vector power{100.0, 150.0};
    PerformanceConstraint c{0.0, 10.0};
    optimizer::Schedule plan;
    plan.parts.push_back({kIdleConfig, 10.0});
    auto run =
        optimizer::executeScheduleGuarded(plan, perf, power, 85.0, c);
    EXPECT_TRUE(run.deadlineMet);
    EXPECT_NEAR(run.energyJoules, 85.0 * 10.0, 1e-9);
}

// ------------------------------------ Planner feasibility consistency

// planMinimalEnergy and the global planner must agree on feasibility
// across degenerate constraints, on the hull-walk fast path and in
// the LP (which planPerAppGreedy solves for a one-demand fleet).
// The grid stays outside the planners' epsilon disagreement band
// (relative over-capacity between ~1e-12 and the LP's ~1e-7
// feasibility tolerance), where the hull walk and the simplex are
// allowed to disagree on exactly-critical demands.
TEST(FeasibilityConsistency, DegenerateConstraintGrid)
{
    const Vector perf{1.0, 2.0, 4.0};
    const Vector power{100.0, 130.0, 220.0};
    const double idle = 85.0;
    const double deadline = 10.0;
    const double capacity = 4.0 * deadline; // fastest rate * T

    const double works[] = {0.0,
                            0.5 * capacity,
                            capacity,
                            capacity * (1.0 + 1e-13),
                            capacity * (1.0 + 1e-6),
                            capacity * 1.5};
    for (const double work : works) {
        PerformanceConstraint c{work, deadline};
        const auto minimal =
            optimizer::planMinimalEnergy(perf, power, idle, c);
        optimizer::TenantDemand demand{perf, power, c};
        const auto fast =
            optimizer::planGlobalSchedule({demand}, idle, {});
        const auto lp = optimizer::planPerAppGreedy({demand}, idle, {});

        EXPECT_EQ(minimal.feasible, fast.feasible) << "work " << work;
        EXPECT_EQ(minimal.feasible, lp.feasible) << "work " << work;
    }

    // Zero-rate configuration space: feasible iff there is no work,
    // in all three planners. A two-demand fleet of such apps reaches
    // the global planner's no-variable branch: everyone idles out a
    // window, or the fleet falls back.
    const Vector zperf{0.0, 0.0};
    const Vector zpower{90.0, 95.0};
    for (const double work : {0.0, 1.0}) {
        PerformanceConstraint c{work, deadline};
        const bool want = work == 0.0;
        EXPECT_EQ(optimizer::planMinimalEnergy(zperf, zpower, idle, c)
                      .feasible,
                  want);
        optimizer::TenantDemand demand{zperf, zpower, c};
        EXPECT_EQ(
            optimizer::planGlobalSchedule({demand}, idle, {}).feasible,
            want);
        EXPECT_EQ(
            optimizer::planPerAppGreedy({demand}, idle, {}).feasible,
            want);

        const optimizer::TenantDemand idler{zperf, zpower,
                                            {0.0, 0.5 * deadline}};
        const auto fleet =
            optimizer::planGlobalSchedule({idler, demand}, idle, {});
        EXPECT_EQ(fleet.feasible, want) << "work " << work;
        ASSERT_EQ(fleet.perTenant.size(), 2u);
        if (want) {
            // Each app idles out its own window; the machine idles to
            // the last deadline.
            EXPECT_EQ(fleet.perTenant[0].predictedEnergy,
                      idle * idler.constraint.deadlineSeconds);
            EXPECT_EQ(fleet.perTenant[1].predictedEnergy,
                      idle * deadline);
            EXPECT_EQ(fleet.predictedEnergy, idle * deadline);
            EXPECT_EQ(fleet.intervals.size(), 2u);
        }
    }
}

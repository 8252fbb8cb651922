/**
 * @file
 * Tests for the global multi-app co-scheduler (optimizer/global.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "linalg/error.hh"
#include "obs/obs.hh"
#include "optimizer/global.hh"
#include "platform/config_space.hh"
#include "stats/rng.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;
using linalg::Vector;
using optimizer::GlobalPlanOptions;
using optimizer::GlobalSchedule;
using optimizer::kIdleConfig;
using optimizer::kNoPowerCap;
using optimizer::PerformanceConstraint;
using optimizer::TenantDemand;

namespace
{

const Vector kPerf{1.0, 2.5, 4.0};
const Vector kPower{100.0, 130.0, 220.0};
constexpr double kIdle = 85.0;

TenantDemand
demand(double work, double deadline)
{
    return TenantDemand{kPerf, kPower, {work, deadline}};
}

double
busySeconds(const optimizer::Schedule &s)
{
    double busy = 0.0;
    for (const auto &part : s.parts)
        if (part.configIndex != kIdleConfig)
            busy += part.seconds;
    return busy;
}

double
workDelivered(const optimizer::Schedule &s, const Vector &perf)
{
    double work = 0.0;
    for (const auto &part : s.parts)
        if (part.configIndex != kIdleConfig)
            work += perf[part.configIndex] * part.seconds;
    return work;
}

} // namespace

// ------------------------------------------------ single-app parity

TEST(GlobalPlan, SingleAppFastPathIsExactlyTheHullWalk)
{
    const TenantDemand d = demand(30.0, 10.0);
    const auto hull = optimizer::planMinimalEnergy(
        kPerf, kPower, kIdle, d.constraint);
    const GlobalSchedule fast =
        optimizer::planGlobalSchedule({d}, kIdle, {});
    ASSERT_EQ(fast.perTenant.size(), 1u);
    // Bitwise: the fast path *is* planMinimalEnergy.
    EXPECT_EQ(fast.predictedEnergy, hull.predictedEnergy);
    EXPECT_EQ(fast.feasible, hull.feasible);
    ASSERT_EQ(fast.perTenant[0].parts.size(), hull.parts.size());
    for (std::size_t i = 0; i < hull.parts.size(); ++i) {
        EXPECT_EQ(fast.perTenant[0].parts[i].configIndex,
                  hull.parts[i].configIndex);
        EXPECT_EQ(fast.perTenant[0].parts[i].seconds,
                  hull.parts[i].seconds);
    }
}

TEST(GlobalPlan, SingleAppForcedLpMatchesTheHullWalk)
{
    // The interval LP reduces to Equation (1) for one app with no
    // cap; across a sweep of demands its optimum must agree with the
    // hull walk to LP tolerance. The greedy planner solves that LP
    // for a one-demand fleet: the same columns, the full interval
    // budget and the same simplex call as the shared program.
    stats::Rng rng(42);
    for (int trial = 0; trial < 50; ++trial) {
        const double deadline = rng.uniform(1.0, 20.0);
        const double work = rng.uniform(0.0, 4.0 * deadline * 0.99);
        const TenantDemand d = demand(work, deadline);
        const auto hull = optimizer::planMinimalEnergy(
            kPerf, kPower, kIdle, d.constraint);
        const GlobalSchedule lp =
            optimizer::planPerAppGreedy({d}, kIdle, {});
        ASSERT_TRUE(lp.feasible) << "trial " << trial;
        EXPECT_NEAR(lp.predictedEnergy, hull.predictedEnergy,
                    1e-9 * (1.0 + hull.predictedEnergy))
            << "trial " << trial;
        // The LP schedule really delivers the work by the deadline.
        EXPECT_NEAR(workDelivered(lp.perTenant[0], kPerf), work,
                    1e-6 * (1.0 + work));
        EXPECT_LE(busySeconds(lp.perTenant[0]), deadline + 1e-9);
    }
}

TEST(GlobalPlan, SingleAppInfeasibleDemandFallsBack)
{
    // The hull-walk fast path and the LP (through the greedy planner,
    // which solves it for one demand) both fall back.
    const TenantDemand d = demand(100.0, 10.0); // rate 10 > max 4
    for (const GlobalSchedule &g :
         {optimizer::planGlobalSchedule({d}, kIdle, {}),
          optimizer::planPerAppGreedy({d}, kIdle, {})}) {
        EXPECT_FALSE(g.feasible);
        ASSERT_EQ(g.perTenant.size(), 1u);
        EXPECT_FALSE(g.perTenant[0].feasible);
        // Best effort: flat out for the whole window.
        EXPECT_TRUE(std::isfinite(g.predictedEnergy));
    }
}

// ------------------------------------------------- multi-app sharing

TEST(GlobalPlan, ExclusivityHoldsInEveryInterval)
{
    const std::vector<TenantDemand> demands{
        demand(12.0, 4.0), demand(20.0, 10.0), demand(6.0, 7.0)};
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, {});
    ASSERT_TRUE(g.feasible);
    ASSERT_EQ(g.intervals.size(), 3u); // deadlines 4, 7, 10
    EXPECT_EQ(g.intervals[0].endSeconds, 4.0);
    EXPECT_EQ(g.intervals[1].endSeconds, 7.0);
    EXPECT_EQ(g.intervals[2].endSeconds, 10.0);
    double prev = 0.0;
    for (const auto &iv : g.intervals) {
        // One machine: total busy time cannot exceed the interval.
        EXPECT_LE(iv.busySeconds, (iv.endSeconds - prev) + 1e-9);
        prev = iv.endSeconds;
    }
    // Every app's work is delivered within its own deadline.
    for (std::size_t a = 0; a < demands.size(); ++a) {
        EXPECT_NEAR(workDelivered(g.perTenant[a], kPerf),
                    demands[a].constraint.work,
                    1e-6 * (1.0 + demands[a].constraint.work));
        EXPECT_LE(busySeconds(g.perTenant[a]),
                  demands[a].constraint.deadlineSeconds + 1e-9);
    }
}

TEST(GlobalPlan, PowerCapIsRespectedPerInterval)
{
    // Uncapped, the loose-deadline app races flat out in the second
    // interval at 220 W average; the 210 W cap binds and forces part
    // of its work into the first interval.
    const std::vector<TenantDemand> demands{demand(20.0, 10.0),
                                            demand(18.0, 5.0)};
    GlobalPlanOptions o;
    o.powerCapWatts = 210.0;
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, o);
    ASSERT_TRUE(g.feasible);
    double prev = 0.0;
    for (const auto &iv : g.intervals) {
        const double len = iv.endSeconds - prev;
        const double avg_power =
            (iv.activeEnergyJoules +
             kIdle * (len - iv.busySeconds)) /
            len;
        EXPECT_LE(avg_power, o.powerCapWatts * (1.0 + 1e-9));
        prev = iv.endSeconds;
    }
}

TEST(GlobalPlan, TooTightCapFallsBackInfeasible)
{
    // Even the cheapest active configuration averages well above
    // this cap once the work forces the machine busy.
    const std::vector<TenantDemand> demands{demand(38.0, 10.0),
                                            demand(19.0, 5.0)};
    GlobalPlanOptions o;
    o.powerCapWatts = 100.0;
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, o);
    EXPECT_FALSE(g.feasible);
    EXPECT_EQ(g.perTenant.size(), 2u);
}

TEST(GlobalPlan, OverloadedMachineFallsBackPerApp)
{
    // Each app alone is feasible; together they exceed one machine.
    const std::vector<TenantDemand> demands{demand(39.0, 10.0),
                                            demand(39.0, 10.0)};
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, {});
    EXPECT_FALSE(g.feasible);
    ASSERT_EQ(g.perTenant.size(), 2u);
    // The best-effort slices are the standalone plans.
    for (const auto &s : g.perTenant)
        EXPECT_TRUE(s.feasible); // standalone each is feasible
}

TEST(GlobalPlan, ZeroWorkTenantJustIdles)
{
    const std::vector<TenantDemand> demands{demand(20.0, 10.0),
                                            demand(0.0, 4.0)};
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, {});
    ASSERT_TRUE(g.feasible);
    EXPECT_NEAR(busySeconds(g.perTenant[1]), 0.0, 1e-9);
    EXPECT_NEAR(g.perTenant[1].predictedEnergy, kIdle * 4.0, 1e-9);
}

TEST(GlobalPlan, ZeroRateTenantWithWorkIsInfeasible)
{
    // The dead tenant's work row degenerates to 0 = W > 0 inside the
    // shared LP — the simplex redundant-row handling must classify
    // it Infeasible (this was the Unbounded-misreport regression).
    TenantDemand dead{Vector{0.0, 0.0}, Vector{90.0, 95.0},
                      {1.0, 6.0}};
    const GlobalSchedule g = optimizer::planGlobalSchedule(
        {demand(20.0, 10.0), dead}, kIdle, {});
    EXPECT_FALSE(g.feasible);

    TenantDemand dead_ok{Vector{0.0, 0.0}, Vector{90.0, 95.0},
                         {0.0, 6.0}};
    const GlobalSchedule g2 = optimizer::planGlobalSchedule(
        {demand(20.0, 10.0), dead_ok}, kIdle, {});
    EXPECT_TRUE(g2.feasible);
}

TEST(GlobalPlan, IdenticalFrontiersShareTheMachine)
{
    // Two copies of the same app give the LP linearly dependent
    // structure; it must still split the machine and deliver both.
    const std::vector<TenantDemand> demands{demand(15.0, 10.0),
                                            demand(15.0, 10.0)};
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, kIdle, {});
    ASSERT_TRUE(g.feasible);
    for (const auto &s : g.perTenant)
        EXPECT_NEAR(workDelivered(s, kPerf), 15.0, 1e-6);
    EXPECT_LE(g.intervals[0].busySeconds, 10.0 + 1e-9);
}

TEST(GlobalPlan, DeterministicAcrossRepeatedCalls)
{
    const std::vector<TenantDemand> demands{
        demand(12.0, 4.0), demand(20.0, 10.0), demand(6.0, 7.0)};
    GlobalPlanOptions o;
    o.powerCapWatts = 170.0;
    const GlobalSchedule a =
        optimizer::planGlobalSchedule(demands, kIdle, o);
    const GlobalSchedule b =
        optimizer::planGlobalSchedule(demands, kIdle, o);
    EXPECT_EQ(a.predictedEnergy, b.predictedEnergy);
    ASSERT_EQ(a.perTenant.size(), b.perTenant.size());
    for (std::size_t t = 0; t < a.perTenant.size(); ++t) {
        ASSERT_EQ(a.perTenant[t].parts.size(),
                  b.perTenant[t].parts.size());
        for (std::size_t i = 0; i < a.perTenant[t].parts.size(); ++i) {
            EXPECT_EQ(a.perTenant[t].parts[i].configIndex,
                      b.perTenant[t].parts[i].configIndex);
            EXPECT_EQ(a.perTenant[t].parts[i].seconds,
                      b.perTenant[t].parts[i].seconds);
        }
    }
}

TEST(GlobalPlan, RejectsMalformedInputs)
{
    EXPECT_THROW(optimizer::planGlobalSchedule({}, kIdle, {}),
                 FatalError);
    EXPECT_THROW(
        optimizer::planGlobalSchedule({demand(1.0, 0.0)}, kIdle, {}),
        FatalError);
    EXPECT_THROW(
        optimizer::planGlobalSchedule({demand(-1.0, 1.0)}, kIdle, {}),
        FatalError);
    EXPECT_THROW(
        optimizer::planGlobalSchedule({demand(1.0, 1.0)}, -1.0, {}),
        FatalError);
    GlobalPlanOptions nan_cap;
    nan_cap.powerCapWatts = std::nan("");
    EXPECT_THROW(optimizer::planGlobalSchedule({demand(1.0, 1.0)},
                                               kIdle, nan_cap),
                 FatalError);
}

// ------------------------------------------------- greedy baseline

TEST(GreedyBaseline, NeverBeatsTheGlobalPlan)
{
    // Greedy's outcome is a feasible point of the global program, so
    // the global optimum can never predict more energy.
    stats::Rng rng(7);
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<TenantDemand> demands;
        const int napps = 2 + rng.uniformInt(0, 2);
        for (int a = 0; a < napps; ++a) {
            const double deadline = rng.uniform(2.0, 12.0);
            const double work =
                rng.uniform(0.0, 4.0 * deadline * 0.5);
            demands.push_back(demand(work, deadline));
        }
        const GlobalSchedule global =
            optimizer::planGlobalSchedule(demands, kIdle, {});
        const GlobalSchedule greedy =
            optimizer::planPerAppGreedy(demands, kIdle, {});
        if (!global.feasible || !greedy.feasible)
            continue; // fallbacks are not comparable energies
        EXPECT_LE(global.predictedEnergy,
                  greedy.predictedEnergy *
                      (1.0 + 1e-9) + 1e-9)
            << "trial " << trial;
    }
}

TEST(GreedyBaseline, StarvesTightDeadlineAppThatGlobalPlaces)
{
    // App 0 (loose deadline, planned first) soaks up the early
    // interval; app 1 (tight deadline) then cannot fit its work in
    // what is left and greedy degrades to an infeasible best-effort,
    // while the global plan coordinates both — the strict win the
    // tab03 bench measures as a feasibility-rate gap.
    const std::vector<TenantDemand> demands{demand(20.0, 10.0),
                                            demand(18.0, 5.0)};
    const GlobalSchedule global =
        optimizer::planGlobalSchedule(demands, kIdle, {});
    const GlobalSchedule greedy =
        optimizer::planPerAppGreedy(demands, kIdle, {});
    ASSERT_TRUE(global.feasible);
    EXPECT_FALSE(greedy.feasible);
    EXPECT_TRUE(std::isfinite(global.predictedEnergy));
}

TEST(GreedyBaseline, CapStarvationMakesGreedyInfeasible)
{
    // With a binding cap the greedy first app drains the early
    // interval's cap budget; the tight-deadline app then cannot fit,
    // while the global plan places both.
    const std::vector<TenantDemand> demands{demand(20.0, 10.0),
                                            demand(18.0, 5.0)};
    GlobalPlanOptions o;
    o.powerCapWatts = 210.0;
    const GlobalSchedule global =
        optimizer::planGlobalSchedule(demands, kIdle, o);
    const GlobalSchedule greedy =
        optimizer::planPerAppGreedy(demands, kIdle, o);
    EXPECT_TRUE(global.feasible);
    // Greedy either fails outright or pays at least as much.
    if (greedy.feasible) {
        EXPECT_GE(greedy.predictedEnergy,
                  global.predictedEnergy * (1.0 - 1e-9));
    }
}

// ------------------------------------------- 16-tenant LP regression

namespace
{

/**
 * The fleet LP repro: 16 suite applications on the 256-configuration
 * reduced space. App a has deadline 1 + (a mod 4) s and work
 * (1.2 / 16) * its peak rate * its deadline, so the interval LP has
 * 20 rows and about 1600 frontier columns.
 */
std::vector<TenantDemand>
sixteenTenants(const platform::Machine &machine)
{
    const auto space = platform::ConfigSpace::reducedFactorial(machine, 2, 2);
    const auto suite = workloads::standardSuite();
    constexpr std::size_t kApps = 16;
    std::vector<TenantDemand> demands;
    for (std::size_t a = 0; a < kApps; ++a) {
        const workloads::ApplicationModel app(suite[a], machine);
        const auto gt = workloads::computeGroundTruth(app, space);
        const double deadline = 1.0 + static_cast<double>(a % 4);
        const double work = (1.2 / static_cast<double>(kApps)) *
                            gt.performance.max() * deadline;
        demands.push_back(
            TenantDemand{gt.performance, gt.power, {work, deadline}});
    }
    return demands;
}

/** Plan the repro and check it: feasible, every app's work inside
 *  its deadline, the cap held per interval, and a bounded number of
 *  simplex pivots. */
void
expectSolvesWithinPivotBudget(double cap)
{
    const platform::Machine machine;
    const double idle = machine.spec().idleSystemPowerW;
    const auto demands = sixteenTenants(machine);
    GlobalPlanOptions o;
    o.powerCapWatts = cap;

    const obs::Counter pivots =
        obs::Registry::global().counter(obs::names::kLpPivotsStepped);
    const std::uint64_t before = pivots.value();
    const GlobalSchedule g =
        optimizer::planGlobalSchedule(demands, idle, o);
    const std::uint64_t stepped = pivots.value() - before;

    ASSERT_TRUE(g.feasible);
    ASSERT_EQ(g.perTenant.size(), demands.size());
    for (std::size_t a = 0; a < demands.size(); ++a) {
        const auto &c = demands[a].constraint;
        EXPECT_TRUE(g.perTenant[a].feasible) << "app " << a;
        EXPECT_NEAR(workDelivered(g.perTenant[a], demands[a].performance),
                    c.work, 1e-6 * (1.0 + c.work))
            << "app " << a;
        EXPECT_LE(busySeconds(g.perTenant[a]),
                  c.deadlineSeconds * (1.0 + 1e-9))
            << "app " << a;
    }
    double prev = 0.0;
    for (const auto &iv : g.intervals) {
        const double len = iv.endSeconds - prev;
        EXPECT_LE(iv.busySeconds, len * (1.0 + 1e-9));
        if (std::isfinite(cap)) {
            EXPECT_LE((iv.activeEnergyJoules +
                       idle * (len - iv.busySeconds)) /
                          len,
                      cap * (1.0 + 1e-9));
        }
        prev = iv.endSeconds;
    }
    if (obs::Registry::global().enabled()) {
        EXPECT_LE(stepped, 20000u);
    }
}

} // namespace

/**
 * The simplex must keep its tableau canonical: a pivot that leaves
 * entries below 1e-9 in the pivot column lets the basic columns
 * drift, and on this program Bland's rule then steps millions of
 * pivots into the iteration valve, whose Unbounded the planner reads
 * as infeasible. A canonical tableau solves it in a few thousand.
 */
TEST(GlobalPlanRegression, SixteenTenantsUncapped)
{
    expectSolvesWithinPivotBudget(kNoPowerCap);
}

TEST(GlobalPlanRegression, SixteenTenantsAt162Watts)
{
    expectSolvesWithinPivotBudget(162.0);
}

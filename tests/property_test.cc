/**
 * @file
 * Parameterized property tests: invariants swept across the whole
 * benchmark suite, random problem instances and option grids.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "faults/faults.hh"
#include "linalg/cholesky.hh"
#include "linalg/simplex.hh"
#include "linalg/workspace.hh"
#include "optimizer/global.hh"
#include "optimizer/pareto.hh"
#include "optimizer/schedule.hh"
#include "scenario/spec.hh"
#include "stats/metrics.hh"
#include "support/dense.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/ground_truth.hh"
#include "workloads/suite.hh"

using namespace leo;
using linalg::Matrix;
using linalg::Vector;

// ----------------------------------------------------- per-benchmark

/**
 * Every suite benchmark satisfies the physical sanity invariants on
 * the full factorial space, and LEO estimates it acceptably on the
 * core-only space.
 */
class SuiteProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    static platform::Machine machine_;
    static platform::ConfigSpace space_;
    static telemetry::ProfileStore store_;
};

platform::Machine SuiteProperty::machine_{};
platform::ConfigSpace SuiteProperty::space_ =
    platform::ConfigSpace::coreOnly(SuiteProperty::machine_);
telemetry::ProfileStore SuiteProperty::store_ = [] {
    stats::Rng rng(77);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    return telemetry::ProfileStore::collect(
        workloads::standardSuite(), SuiteProperty::machine_,
        SuiteProperty::space_, mon, met, rng);
}();

TEST_P(SuiteProperty, PowerWithinPhysicalEnvelope)
{
    workloads::ApplicationModel app(
        workloads::profileByName(GetParam()), machine_);
    const auto &spec = machine_.spec();
    for (std::size_t c = 0; c < space_.size(); ++c) {
        const auto &ra = space_.assignment(c);
        const double wall = app.powerWatts(ra);
        EXPECT_GT(wall, spec.idleSystemPowerW);
        EXPECT_LT(wall, spec.idleSystemPowerW +
                            spec.memControllerPowerW *
                                spec.memControllers +
                            spec.tdpPerSocketW * spec.sockets * 1.05);
    }
}

TEST_P(SuiteProperty, MorePowerAtHigherSpeed)
{
    // Fixing everything but the clock, power is non-decreasing in
    // speed (texture can add a small ripple; allow 5%).
    workloads::ApplicationModel app(
        workloads::profileByName(GetParam()), machine_);
    auto full = platform::ConfigSpace::fullFactorial(machine_);
    for (unsigned s = 0; s + 1 < 15; s += 4) {
        auto lo = machine_.assignment({8, 1, 2, s});
        auto hi = machine_.assignment({8, 1, 2, s + 1});
        EXPECT_LT(app.powerWatts(lo), app.powerWatts(hi) * 1.05)
            << GetParam() << " at speed " << s;
    }
}

TEST_P(SuiteProperty, LeoEstimateAcceptable)
{
    const std::string name = GetParam();
    workloads::ApplicationModel app(
        workloads::profileByName(name), machine_);
    auto gt = workloads::computeGroundTruth(app, space_);

    stats::Rng rng(7);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, space_, pol, 10, rng);

    estimators::LeoEstimator leo;
    auto prior = store_.without(name);
    estimators::EstimationInputs inputs{space_, prior, obs};
    auto est = leo.estimate(inputs);
    // filebound is the suite's pathological case: IO-bound, nearly
    // flat response, no shape-mate in the prior. Equation (5)'s
    // denominator (truth variance) is tiny there, so R^2 is a harsh
    // yardstick even for a prediction within a few percent; check
    // relative RMSE instead for that one benchmark.
    if (name == "filebound") {
        double sq = 0.0;
        for (std::size_t c = 0; c < gt.performance.size(); ++c) {
            const double e = est.performance.values[c] - gt.performance[c];
            sq += e * e;
        }
        const double rmse =
            std::sqrt(sq / static_cast<double>(gt.performance.size()));
        EXPECT_LT(rmse, 0.15 * gt.performance.mean());
    } else {
        EXPECT_GT(stats::accuracy(est.performance.values,
                                  gt.performance),
                  0.6)
            << name;
    }
    EXPECT_GT(stats::accuracy(est.power.values, gt.power), 0.8)
        << name;
}

TEST_P(SuiteProperty, EmLikelihoodNonDecreasing)
{
    // EM's defining property: the observed-data likelihood never
    // decreases across iterations (tiny numerical slack).
    const std::string name = GetParam();
    workloads::ApplicationModel app(
        workloads::profileByName(name), machine_);
    stats::Rng rng(11);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, space_, pol, 6, rng);

    estimators::LeoOptions opt;
    opt.maxIterations = 6;
    opt.tolerance = 0.0;
    estimators::LeoEstimator leo(opt);
    auto prior = estimators::priorVectors(
        store_.without(name), estimators::Metric::Performance);
    auto fit = leo.fitMetric(prior, obs.indices, obs.performance);

    ASSERT_GE(fit.logLikelihoodTrace.size(), 2u);
    for (std::size_t i = 0; i + 1 < fit.logLikelihoodTrace.size();
         ++i) {
        const double slack =
            0.01 * std::abs(fit.logLikelihoodTrace[i]) + 1.0;
        EXPECT_GE(fit.logLikelihoodTrace[i + 1],
                  fit.logLikelihoodTrace[i] - slack)
            << name << " iteration " << i;
    }
    // And it improves overall from the initial parameters.
    EXPECT_GT(fit.logLikelihoodTrace.back(),
              fit.logLikelihoodTrace.front());
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteProperty,
    ::testing::ValuesIn(workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        return param_info.param;
    });

// ------------------------------------------------ random LP instances

/** Hull-walk vs simplex equivalence on seeded random instances. */
class LpEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(LpEquivalence, HullWalkMatchesSimplex)
{
    stats::Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::size_t n = 8 + static_cast<std::size_t>(
                                  rng.uniformInt(0, 12));
    Vector perf(n), power(n);
    for (std::size_t i = 0; i < n; ++i) {
        perf[i] = rng.uniform(0.5, 10.0);
        power[i] = 80.0 + perf[i] * rng.uniform(5.0, 40.0) +
                   rng.uniform(0.0, 20.0);
    }
    const double idle = rng.uniform(40.0, 90.0);
    const double t_total = rng.uniform(5.0, 50.0);
    const double rate = rng.uniform(0.1, 9.0);
    optimizer::PerformanceConstraint c{rate * t_total, t_total};

    auto plan = optimizer::planMinimalEnergy(perf, power, idle, c);
    if (!plan.feasible)
        GTEST_SKIP() << "demand above capacity";

    linalg::LinearProgram lp(n + 1);
    Vector obj(n + 1), rates(n + 1), ones(n + 1, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
        obj[i] = power[i];
        rates[i] = perf[i];
    }
    obj[n] = idle;
    lp.setObjective(obj);
    lp.addEquality(rates, c.work);
    lp.addEquality(ones, t_total);
    auto sol = lp.solve();
    ASSERT_EQ(sol.status, linalg::LpStatus::Optimal);

    double plan_energy = plan.predictedEnergy;
    double planned_time = 0.0;
    for (const auto &p : plan.parts)
        planned_time += p.seconds;
    plan_energy += (t_total - planned_time) * idle;

    EXPECT_NEAR(plan_energy, sol.objective, 1e-6 * sol.objective);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpEquivalence,
                         ::testing::Range(1, 26));

// ------------------------------------------- random SPD factorization

/** Cholesky round-trip across sizes. */
class CholeskyProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(CholeskyProperty, FactorSolveRoundTrip)
{
    const std::size_t n = static_cast<std::size_t>(GetParam());
    stats::Rng rng(1000 + n);
    Matrix b(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            b(i, j) = rng.gaussian();
    Matrix a = Matrix::multiply(b, support::transpose(b));
    a.addToDiagonal(0.5 * static_cast<double>(n));

    linalg::Cholesky chol;
    chol.factorize(a);
    // L L' == A.
    const Matrix &l = chol.factor();
    Matrix llt = Matrix::multiply(l, support::transpose(l));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(llt(i, j), a(i, j),
                        1e-9 * (1.0 + std::abs(a(i, j))));

    // Solve round trip.
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = rng.gaussian();
    Vector back = a * x;
    chol.solveInPlace(back);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(back[i], x[i], 1e-7 * (1.0 + std::abs(x[i])));

    // The inverse agrees with solving against each unit vector.
    linalg::Workspace ws;
    Matrix inv;
    chol.inverseInto(inv, ws);
    for (std::size_t j = 0; j < n; ++j) {
        Vector e(n, 0.0);
        e[j] = 1.0;
        chol.solveInPlace(e);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(inv(i, j), e[i], 1e-8);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55));

// ------------------------------------------------ frontier invariants

/** Pareto/hull invariants on random tradeoff clouds. */
class FrontierProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(FrontierProperty, HullSubsetOfFrontierPlusIdle)
{
    stats::Rng rng(static_cast<std::uint64_t>(500 + GetParam()));
    const std::size_t n = 40;
    Vector perf(n), power(n);
    for (std::size_t i = 0; i < n; ++i) {
        perf[i] = rng.uniform(0.1, 30.0);
        power[i] = rng.uniform(90.0, 300.0);
    }
    auto frontier = optimizer::paretoFrontier(perf, power);
    auto hull = optimizer::lowerConvexHull(frontier, 85.0);

    // Every hull vertex is the idle point or a frontier point.
    for (const auto &v : hull) {
        if (v.configIndex == optimizer::kIdleConfig)
            continue;
        bool found = false;
        for (const auto &f : frontier)
            found |= f.configIndex == v.configIndex;
        EXPECT_TRUE(found);
    }
    // Hull performance strictly increases.
    for (std::size_t i = 0; i + 1 < hull.size(); ++i)
        EXPECT_LT(hull[i].performance, hull[i + 1].performance);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontierProperty,
                         ::testing::Range(1, 16));

// --------------------------------------------- estimator option grid

/** LEO stays sane across its option grid. */
struct LeoGridParam
{
    double psi;
    double pi;
    std::size_t iters;
};

class LeoOptionGrid : public ::testing::TestWithParam<LeoGridParam>
{
};

TEST_P(LeoOptionGrid, FitStaysFiniteAndAnchored)
{
    const LeoGridParam p = GetParam();
    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    stats::Rng rng(5);
    telemetry::HeartbeatMonitor mon;
    telemetry::WattsUpMeter met;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, mon, met, rng);

    workloads::ApplicationModel app(
        workloads::profileByName("swish"), machine);
    telemetry::Profiler prof(mon, met);
    telemetry::RandomSampler pol;
    auto obs = prof.sample(app, space, pol, 8, rng);

    estimators::LeoOptions opt;
    opt.hyperPsiScale = p.psi;
    opt.hyperPi = p.pi;
    opt.maxIterations = p.iters;
    estimators::LeoEstimator leo(opt);
    auto fit = leo.fitMetric(
        estimators::priorVectors(store.without("swish"),
                                 estimators::Metric::Performance),
        obs.indices, obs.performance);

    EXPECT_TRUE(fit.prediction.allFinite());
    EXPECT_GE(*std::min_element(fit.prediction.begin(),
                                fit.prediction.end()),
              0.0);
    EXPECT_GT(fit.sigma2, 0.0);
    // Prediction scale is anchored near the observations.
    const double obs_mean = obs.performance.mean();
    EXPECT_NEAR(fit.prediction.gather(obs.indices).mean(), obs_mean,
                0.35 * obs_mean);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LeoOptionGrid,
    ::testing::Values(LeoGridParam{0.005, 1.0, 4},
                      LeoGridParam{0.02, 1.0, 1},
                      LeoGridParam{0.02, 0.0, 4},
                      LeoGridParam{0.02, 5.0, 4},
                      LeoGridParam{0.5, 1.0, 8},
                      LeoGridParam{0.02, 1.0, 12}));

// ------------------------------------------------ fault scenarios

namespace
{

/** Fault scenarios the global-plan property sweeps, authored in the
 *  scenario DSL (scenario/spec.hh) so the sweep is a pure function of
 *  parseable spec text. Exactly four cells: the
 *  INSTANTIATE_TEST_SUITE_P range below indexes into this list. */
struct FaultCell
{
    std::string name;
    faults::FaultScenario scenario;
};

std::vector<FaultCell>
faultSweep()
{
    static const char *const kCells[] = {
        "name none\n",
        "name nan\nfault.nan 0.10\n",
        "name outlier\nfault.outlier 0.10\nfault.outlier_scale 25\n",
        "name mixed\nfault.nan 0.05\nfault.dropout 0.05\n"
        "fault.stale 0.05\n",
    };
    std::vector<FaultCell> sweep;
    for (const char *text : kCells) {
        const scenario::Spec spec = scenario::Spec::fromString(text);
        sweep.push_back({spec.name, spec.faults});
    }
    return sweep;
}

} // namespace

// ------------------------------------------- global co-scheduling

/**
 * Properties of the global multi-app co-scheduler, swept across the
 * fault scenarios above: estimates corrupted by sensor faults (then
 * sanitized the way the runtime does) must never let the shared plan
 * undercut the single-app optimum, and a binding power cap must hold
 * in every interval.
 */
class GlobalPlanProperty : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GlobalPlanProperty, SharingNeverBeatsStandaloneAndCapsHold)
{
    const FaultCell ns = faultSweep()[GetParam()];
    SCOPED_TRACE(ns.name);
    faults::FaultInjector perf_faults(ns.scenario);
    faults::FaultInjector power_faults(ns.scenario);
    stats::Rng rng(131 + GetParam());

    const double idle = 85.0;
    for (int trial = 0; trial < 25; ++trial) {
        // Random fleet with faulted estimate vectors, sanitized the
        // way the telemetry path does (non-finite / non-positive
        // readings clamp to a dead config at idle power).
        std::vector<optimizer::TenantDemand> demands;
        const int napps = 1 + rng.uniformInt(0, 3);
        for (int a = 0; a < napps; ++a) {
            const std::size_t ncfg = 2 + static_cast<std::size_t>(
                                             rng.uniformInt(0, 4));
            Vector perf(ncfg), power(ncfg);
            for (std::size_t c = 0; c < ncfg; ++c) {
                const double r = perf_faults.corrupt(
                    rng.uniform(0.5, 4.0));
                const double p = power_faults.corrupt(
                    rng.uniform(90.0, 220.0));
                perf[c] = std::isfinite(r) && r > 0.0 ? r : 0.0;
                power[c] =
                    std::isfinite(p) && p > idle ? p : idle;
            }
            const double deadline = rng.uniform(2.0, 12.0);
            const double fastest = perf.max();
            const double work =
                rng.uniform(0.0, 0.8 * fastest * deadline);
            demands.push_back({perf, power, {work, deadline}});
        }

        // Slack cap: per-tenant energy never undercuts the hull walk
        // (sharing one machine cannot beat having it exclusively).
        optimizer::GlobalPlanOptions slack;
        slack.forceLp = true;
        const auto shared =
            optimizer::planGlobalSchedule(demands, idle, slack);
        if (shared.feasible) {
            for (std::size_t a = 0; a < demands.size(); ++a) {
                const auto solo = optimizer::planMinimalEnergy(
                    demands[a].performance, demands[a].power, idle,
                    demands[a].constraint);
                EXPECT_GE(shared.perTenant[a].predictedEnergy,
                          solo.predictedEnergy *
                                  (1.0 - 1e-9) -
                              1e-9)
                    << "trial " << trial << " app " << a;
            }
            // Greedy is a feasible point of the same program.
            const auto greedy =
                optimizer::planPerAppGreedy(demands, idle, {});
            if (greedy.feasible) {
                EXPECT_LE(shared.predictedEnergy,
                          greedy.predictedEnergy * (1.0 + 1e-9) +
                              1e-9)
                    << "trial " << trial;
            }
        }

        // Binding cap: whenever the capped program stays feasible,
        // the average power holds in *every* interval.
        optimizer::GlobalPlanOptions capped;
        capped.powerCapWatts = rng.uniform(idle + 10.0, 230.0);
        const auto under_cap =
            optimizer::planGlobalSchedule(demands, idle, capped);
        if (under_cap.feasible && !under_cap.intervals.empty()) {
            double prev = 0.0;
            for (const auto &iv : under_cap.intervals) {
                const double len = iv.endSeconds - prev;
                const double avg =
                    (iv.activeEnergyJoules +
                     idle * std::max(len - iv.busySeconds, 0.0)) /
                    len;
                EXPECT_LE(avg, capped.powerCapWatts * (1.0 + 1e-7))
                    << "trial " << trial << " scenario " << ns.name;
                prev = iv.endSeconds;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FaultSweep, GlobalPlanProperty,
                         ::testing::Range<std::size_t>(0, 4));

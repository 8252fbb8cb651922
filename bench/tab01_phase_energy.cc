/**
 * @file
 * Table 1: relative energy consumption on the phased workload.
 *
 * Energy of each approach per phase and overall on
 * bench::phaseChangeSpec(), normalized to the oracle (which receives
 * the true vectors at each phase boundary).
 * Paper values:
 *
 *     Algorithm  Phase#1  Phase#2  Overall
 *     LEO        1.045    1.005    1.028
 *     Offline    1.169    1.275    1.216
 *     Online     1.325    1.248    1.291
 */

#include "bench_common.hh"

using namespace leo;

int
main()
{
    bench::banner("Table 1 — phase energy relative to optimal",
                  "LEO ~1.03 overall; offline ~1.22; online ~1.29");

    bench::World w = bench::fullWorld();
    const scenario::Spec spec = bench::phaseChangeSpec(w);
    auto prior = w.store.without("fluidanimate");

    runtime::ControllerOptions opt;
    opt.sampleBudget = 20;

    scenario::Scenario oracle_sc(spec, w.machine, w.space);
    auto oracle = scenario::runScenario(oracle_sc, nullptr, w.store,
                                        opt);

    estimators::LeoEstimator leo;
    estimators::OnlineEstimator online;
    estimators::OfflineEstimator offline;
    struct Variant
    {
        const char *name;
        const estimators::Estimator *est;
        double paper_overall;
    };
    const Variant variants[] = {{"LEO", &leo, 1.028},
                                {"Offline", &offline, 1.216},
                                {"Online", &online, 1.291}};

    experiments::TextTable t({"Algorithm", "Phase#1", "Phase#2",
                              "Overall", "paper-overall"});
    for (const Variant &v : variants) {
        // Average over a few seeds: the closed loop is stochastic.
        const std::size_t reps = bench::trials(3);
        double p1 = 0, p2 = 0, total = 0;
        for (std::size_t r = 0; r < reps; ++r) {
            scenario::Spec rep = spec;
            rep.seed = bench::seed() + r;
            scenario::Scenario sc(rep, w.machine, w.space);
            auto res = scenario::runScenario(sc, v.est, prior, opt);
            p1 += res.phaseEnergy[0];
            p2 += res.phaseEnergy[1];
            total += res.totalEnergy;
        }
        const double n = static_cast<double>(reps);
        t.addRow({v.name,
                  experiments::fmt(p1 / n / oracle.phaseEnergy[0]),
                  experiments::fmt(p2 / n / oracle.phaseEnergy[1]),
                  experiments::fmt(total / n / oracle.totalEnergy),
                  experiments::fmt(v.paper_overall)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("\noracle energy: phase1 %.0f J, phase2 %.0f J, "
                "total %.0f J\n",
                oracle.phaseEnergy[0], oracle.phaseEnergy[1],
                oracle.totalEnergy);
    return 0;
}

/**
 * @file
 * leo_cli — LEO from the command line, over CSV files.
 *
 * Subcommands:
 *
 *   estimate --prior FILE --obs FILE [--psi X] [--iters N]
 *       Fit the hierarchical model: FILE formats per
 *       src/experiments/csv.hh. Prints `index,estimate,stddev` for
 *       every configuration to stdout.
 *
 *   schedule --perf FILE --power FILE --work W --deadline T
 *            [--idle WATTS]
 *       Solve Equation (1) on estimate tables (index,value rows).
 *       Prints the minimal-energy time allocation.
 *
 *   demo [--out DIR]
 *       Generate example CSVs from the built-in simulator (the
 *       24-app leave-one-out prior for kmeans plus 6 observations),
 *       ready to feed back into `estimate`.
 *
 * Observability (any subcommand):
 *
 *   --metrics FILE   write the obs registry snapshot (JSON) on exit
 *   --trace FILE     record tracing spans and write a Chrome
 *                    trace_event JSON (Perfetto-loadable) on exit
 *
 * Exit status: 0 on success, 1 on bad usage or unreadable input.
 */

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "estimators/leo.hh"
#include "experiments/csv.hh"
#include "linalg/error.hh"
#include "obs/obs.hh"
#include "optimizer/schedule.hh"
#include "platform/config_space.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"
#include "workloads/fields.hh"
#include "workloads/suite.hh"

namespace
{

using namespace leo;
namespace fields = workloads::fields;

/** Parsed --key value options. */
using Options = std::map<std::string, std::string>;

Options
parseOptions(int argc, char **argv, int first)
{
    Options opts;
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            fatal("expected --option, got '" + key + "'");
        key = key.substr(2);
        if (i + 1 >= argc)
            fatal("missing value for --" + key);
        opts[key] = argv[++i];
    }
    return opts;
}

std::string
need(const Options &opts, const std::string &key)
{
    auto it = opts.find(key);
    if (it == opts.end())
        fatal("missing required option --" + key);
    return it->second;
}

/** --key as a finite number (@p fallback when absent). */
double
number(const Options &opts, const std::string &key, double fallback)
{
    auto it = opts.find(key);
    return it == opts.end()
               ? fallback
               : fields::parseFinite(it->second, "--" + key);
}

/** --key as an exact count (@p fallback when absent). */
std::size_t
count(const Options &opts, const std::string &key,
      std::size_t fallback)
{
    auto it = opts.find(key);
    return it == opts.end()
               ? fallback
               : fields::parseCount(it->second, "--" + key);
}

std::ifstream
open(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open " + path);
    return in;
}

/** Read an `index,value` table into a dense vector. */
linalg::Vector
readDense(const std::string &path)
{
    std::ifstream in = open(path);
    auto [idx, vals] = experiments::readObservations(in);
    std::size_t n = 0;
    for (std::size_t i : idx)
        n = std::max(n, i + 1);
    linalg::Vector dense(n, 0.0);
    for (std::size_t k = 0; k < idx.size(); ++k)
        dense[idx[k]] = vals[k];
    return dense;
}

int
cmdEstimate(const Options &opts)
{
    std::ifstream prior_in = open(need(opts, "prior"));
    const auto rows = experiments::readProfileTable(prior_in);
    require(!rows.empty(), "prior table is empty");

    std::ifstream obs_in = open(need(opts, "obs"));
    auto [obs_idx, obs_vals] = experiments::readObservations(obs_in);

    std::vector<linalg::Vector> prior;
    prior.reserve(rows.size());
    for (const auto &r : rows)
        prior.push_back(r.values);

    estimators::LeoOptions lo;
    lo.hyperPsiScale = number(opts, "psi", lo.hyperPsiScale);
    lo.maxIterations = count(opts, "iters", lo.maxIterations);
    const estimators::LeoEstimator leo(lo);
    const estimators::LeoFit fit =
        leo.fitMetric(prior, obs_idx, obs_vals);

    linalg::Vector stddev(fit.prediction.size());
    for (std::size_t i = 0; i < stddev.size(); ++i)
        stddev[i] = std::sqrt(fit.predictiveVarianceAt(i));
    experiments::writeEstimates(std::cout, fit.prediction, stddev);
    std::cerr << "# EM: " << fit.iterations << " iterations, sigma^2="
              << fit.sigma2 << (fit.converged ? " (converged)" : "")
              << "\n";
    return 0;
}

int
cmdSchedule(const Options &opts)
{
    const linalg::Vector perf = readDense(need(opts, "perf"));
    const linalg::Vector power = readDense(need(opts, "power"));
    require(perf.size() == power.size(),
            "perf and power tables differ in length");

    optimizer::PerformanceConstraint c;
    c.work = fields::parseFinite(need(opts, "work"), "--work");
    c.deadlineSeconds =
        fields::parseFinite(need(opts, "deadline"), "--deadline");
    const double idle = number(opts, "idle", 85.0);

    const optimizer::Schedule plan =
        optimizer::planMinimalEnergy(perf, power, idle, c);
    for (const auto &part : plan.parts) {
        if (part.configIndex == optimizer::kIdleConfig)
            std::cout << "idle," << part.seconds << "\n";
        else
            std::cout << part.configIndex << "," << part.seconds
                      << "\n";
    }
    std::cerr << "# predicted energy: " << plan.predictedEnergy
              << " J" << (plan.feasible ? "" : " (INFEASIBLE demand)")
              << "\n";
    return plan.feasible ? 0 : 1;
}

int
cmdDemo(const Options &opts)
{
    const std::string dir =
        opts.count("out") ? opts.at("out") : ".";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cannot create directory " + dir + ": " + ec.message());

    platform::Machine machine;
    auto space = platform::ConfigSpace::coreOnly(machine);
    stats::Rng rng(17);
    telemetry::HeartbeatMonitor monitor;
    telemetry::WattsUpMeter meter;
    auto store = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    auto prior = store.without("kmeans");

    std::vector<experiments::NamedVector> rows;
    for (const auto &rec : prior.records())
        rows.push_back({rec.name, rec.performance});
    std::ofstream prior_out(dir + "/prior_perf.csv");
    require(static_cast<bool>(prior_out),
            "cannot write " + dir + "/prior_perf.csv");
    prior_out << "# heartbeat rate per core count, 24 applications\n";
    experiments::writeProfileTable(prior_out, rows);

    workloads::ApplicationModel kmeans(
        workloads::profileByName("kmeans"), machine);
    telemetry::Profiler profiler(monitor, meter);
    telemetry::UniformGridSampler grid;
    auto obs = profiler.sample(kmeans, space, grid, 6, rng);
    std::ofstream obs_out(dir + "/obs_perf.csv");
    require(static_cast<bool>(obs_out),
            "cannot write " + dir + "/obs_perf.csv");
    obs_out << "# kmeans observed at cores 5,10,...,30\n";
    experiments::writeObservations(obs_out, obs.indices,
                                   obs.performance);

    std::cout << "wrote " << dir << "/prior_perf.csv and " << dir
              << "/obs_perf.csv\n"
              << "try:  leo_cli estimate --prior " << dir
              << "/prior_perf.csv --obs " << dir << "/obs_perf.csv\n";
    return 0;
}

void
usage()
{
    std::cerr
        << "usage: leo_cli estimate --prior FILE --obs FILE "
           "[--psi X] [--iters N]\n"
           "       leo_cli schedule --perf FILE --power FILE "
           "--work W --deadline T [--idle WATTS]\n"
           "       leo_cli demo [--out DIR]\n"
           "any subcommand also takes --metrics FILE (registry "
           "snapshot JSON)\n"
           "and --trace FILE (Chrome trace_event JSON)\n";
}

/** Write the --metrics / --trace outputs after a subcommand ran. */
void
writeObsOutputs(const Options &opts)
{
    if (opts.count("trace")) {
        obs::Tracer &tracer = obs::Tracer::global();
        tracer.disable();
        if (!tracer.writeChromeTrace(opts.at("trace")))
            fatal("cannot write " + opts.at("trace"));
        std::cerr << "# trace: " << tracer.recorded() << " spans ("
                  << tracer.dropped() << " dropped) -> "
                  << opts.at("trace") << "\n";
    }
    if (opts.count("metrics")) {
        std::ofstream out(opts.at("metrics"));
        if (!out)
            fatal("cannot write " + opts.at("metrics"));
        out << obs::snapshotJson();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string cmd = argv[1];
    try {
        const Options opts = parseOptions(argc, argv, 2);
        if (opts.count("trace"))
            obs::Tracer::global().enable(1u << 16);
        int rc = 1;
        if (cmd == "estimate")
            rc = cmdEstimate(opts);
        else if (cmd == "schedule")
            rc = cmdSchedule(opts);
        else if (cmd == "demo")
            rc = cmdDemo(opts);
        else {
            usage();
            return 1;
        }
        writeObsOutputs(opts);
        return rc;
    } catch (const leo::Error &e) {
        std::cerr << "leo_cli: " << e.what() << "\n";
        return 1;
    } catch (const std::exception &e) {
        std::cerr << "leo_cli: " << e.what() << "\n";
        return 1;
    }
}

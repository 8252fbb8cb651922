/**
 * @file
 * Scenario helpers for the tests: the canonical text rendering of a
 * Spec and the service-driven scenario runner.
 *
 * specToString() is the round-trip oracle of the spec grammar: every
 * spec the parser accepts renders to text that parses back to the
 * same rendering. runScenarioService() drives a population of
 * tenants running one scenario through leo::service, so the tests
 * can pin that fleet schedules depend only on the spec and the
 * arrival pattern — never on shard count, worker count or a mid-run
 * snapshot round-trip. No program needs either.
 */

#ifndef LEO_TESTS_SUPPORT_SCENARIO_RUNNER_HH
#define LEO_TESTS_SUPPORT_SCENARIO_RUNNER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "estimators/leo.hh"
#include "parallel/thread_pool.hh"
#include "scenario/scenario.hh"
#include "scenario/spec.hh"
#include "service/service.hh"
#include "telemetry/profile_store.hh"

namespace leo::support
{

/**
 * Canonical text rendering of a spec; Spec::fromString of it renders
 * back to the same text. A heredoc closes with the first of END,
 * END1, END2, ... that no body line reads as, and every fault field
 * off its default is written, so a value the fault injector would
 * reject survives the round trip and is rejected there too.
 */
std::string specToString(const scenario::Spec &spec);

/** Knobs of the service-driven runner. */
struct ServiceRunOptions
{
    /** Tenants admitted over the run. */
    std::size_t tenants = 1;
    /** Windows between consecutive admissions (0 = all at once). */
    std::size_t spacingWindows = 0;
    /** Relative spread of per-tenant target rates around the
     *  scenario target: tenant t demands
     *  target * (1 + rateSpread * t / tenants). */
    double rateSpread = 0.0;
    /** After this many windows, snapshot the service, restore into a
     *  fresh one and continue there (0 = never). */
    std::size_t snapshotAtWindow = 0;
    /** Service knobs; the controller template inherits the
     *  scenario's demand and change-point policy. */
    service::ServiceOptions service;
};

/** Result of a service-driven scenario run. */
struct ServiceRunResult
{
    /** Tenant ids in admission order. */
    std::vector<std::uint64_t> tenants;
    /** Config schedule per tenant (admission order); tenant t's
     *  schedule starts at its admission window. */
    std::vector<std::vector<std::size_t>> schedules;
    /** Windows driven. */
    std::size_t windowsProcessed = 0;
    /** True iff the snapshot round-trip ran. */
    bool restored = false;
};

/**
 * Drive a tenant population through leo::service.
 *
 * Tenant t is admitted at window t * spacingWindows with demand
 * target * (1 + rateSpread * t / tenants), its own seed, its own
 * measurement-noise stream and its own fault stream; every tenant
 * replays the scenario's workload. Deterministic: the schedules
 * depend only on the spec and the options, never on shard or thread
 * count.
 */
ServiceRunResult runScenarioService(
    scenario::Scenario &scenario,
    const estimators::LeoEstimator &estimator,
    std::shared_ptr<const telemetry::ProfileStore> prior,
    parallel::ThreadPool &pool, ServiceRunOptions options = {});

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_SCENARIO_RUNNER_HH

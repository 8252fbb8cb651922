/**
 * @file
 * Implementation of the LEO facade.
 */

#include "core/leo_system.hh"

#include "linalg/error.hh"
#include "workloads/suite.hh"

namespace leo::core
{

LeoSystem::LeoSystem(platform::Machine machine,
                     platform::ConfigSpace space,
                     telemetry::ProfileStore prior,
                     LeoSystemOptions options)
    : machine_(std::move(machine)), space_(std::move(space)),
      prior_(std::move(prior)), options_(options),
      leo_(options.estimator)
{
    require(prior_.numApplications() == 0 ||
                prior_.spaceSize() == space_.size(),
            "LeoSystem: prior database does not match the space");
}

LeoSystem
LeoSystem::withStandardSuite(LeoSystemOptions options)
{
    platform::Machine machine;
    platform::ConfigSpace space =
        platform::ConfigSpace::fullFactorial(machine);
    stats::Rng rng(options.seed);
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;
    telemetry::ProfileStore prior = telemetry::ProfileStore::collect(
        workloads::standardSuite(), machine, space, monitor, meter,
        rng);
    return LeoSystem(std::move(machine), std::move(space),
                     std::move(prior), options);
}

telemetry::Observations
LeoSystem::observe(const workloads::ApplicationBehavior &target,
                   stats::Rng &rng) const
{
    const telemetry::HeartbeatMonitor monitor;
    const telemetry::WattsUpMeter meter;
    const telemetry::Profiler profiler(monitor, meter);
    const telemetry::RandomSampler policy;
    return profiler.sample(target, space_, policy,
                           options_.sampleBudget, rng);
}

estimators::Estimate
LeoSystem::estimate(const telemetry::Observations &obs,
                    const std::string &exclude) const
{
    if (exclude.empty()) {
        const estimators::EstimationInputs inputs{space_, prior_, obs};
        return leo_.estimate(inputs);
    }
    const telemetry::ProfileStore reduced = prior_.without(exclude);
    const estimators::EstimationInputs inputs{space_, reduced, obs};
    return leo_.estimate(inputs);
}

optimizer::Schedule
LeoSystem::minimizeEnergy(
    const estimators::Estimate &estimate,
    const optimizer::PerformanceConstraint &constraint) const
{
    return optimizer::planMinimalEnergy(
        estimate.performance.values, estimate.power.values,
        machine_.spec().idleSystemPowerW, constraint);
}

} // namespace leo::core

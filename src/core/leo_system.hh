/**
 * @file
 * The top-level LEO facade.
 *
 * One object tying the substrates together the way the paper's
 * runtime does: a machine and its configuration space, an offline
 * profile database, the hierarchical Bayesian estimator, and the
 * hull-walking energy minimizer. Downstream users who just want
 * "observe a little, estimate everything, minimize energy" start
 * here; each piece remains individually usable.
 */

#ifndef LEO_CORE_LEO_SYSTEM_HH
#define LEO_CORE_LEO_SYSTEM_HH

#include <memory>

#include "estimators/leo.hh"
#include "estimators/offline.hh"
#include "estimators/online.hh"
#include "optimizer/schedule.hh"
#include "platform/config_space.hh"
#include "telemetry/profile_store.hh"
#include "telemetry/sampler.hh"

namespace leo::core
{

/** Construction options for the facade. */
struct LeoSystemOptions
{
    /** Observations taken of a new application (paper: 20). */
    std::size_t sampleBudget = 20;
    /** Estimator tunables. */
    estimators::LeoOptions estimator;
    /** Seed for sampling and measurement noise. */
    std::uint64_t seed = 0x1e0ULL;
};

/**
 * The assembled LEO system.
 */
class LeoSystem
{
  public:
    /**
     * Build from explicit parts.
     *
     * @param machine Machine model (copied).
     * @param space   Configuration space (copied).
     * @param prior   Offline profile database (copied).
     * @param options Tunables.
     */
    LeoSystem(platform::Machine machine, platform::ConfigSpace space,
              telemetry::ProfileStore prior,
              LeoSystemOptions options = LeoSystemOptions{});

    /**
     * Convenience constructor reproducing the paper's setup: the
     * dual-Xeon machine, the full 1024-configuration space, and an
     * offline database collected from the 25-benchmark suite
     * (excluding nothing; use prior().without(name) for
     * leave-one-out studies).
     */
    static LeoSystem withStandardSuite(
        LeoSystemOptions options = LeoSystemOptions{});

    /** @return The machine model. */
    const platform::Machine &machine() const { return machine_; }
    /** @return The configuration space. */
    const platform::ConfigSpace &space() const { return space_; }
    /** @return The offline profile database. */
    const telemetry::ProfileStore &prior() const { return prior_; }
    /** @return The options. */
    const LeoSystemOptions &options() const { return options_; }

    /**
     * Sample a (simulated) target application with the configured
     * budget and random policy — the online measurement step.
     *
     * @param target The application to observe.
     * @param rng    Randomness source.
     */
    telemetry::Observations observe(
        const workloads::ApplicationBehavior &target,
        stats::Rng &rng) const;

    /**
     * Estimate performance and power in every configuration from a
     * set of observations, using the hierarchical Bayesian model and
     * this system's offline database.
     *
     * @param obs Observations of the target (from observe() or real
     *            measurements).
     * @param exclude Name of a prior application to leave out (e.g.
     *            the target itself in evaluation), empty for none.
     */
    estimators::Estimate estimate(const telemetry::Observations &obs,
                                  const std::string &exclude = "") const;

    /**
     * Plan the minimal-energy schedule for a constraint from an
     * estimate (Equation 1 via the hull walk).
     */
    optimizer::Schedule minimizeEnergy(
        const estimators::Estimate &estimate,
        const optimizer::PerformanceConstraint &constraint) const;

  private:
    platform::Machine machine_;
    platform::ConfigSpace space_;
    telemetry::ProfileStore prior_;
    LeoSystemOptions options_;
    estimators::LeoEstimator leo_;
};

} // namespace leo::core

#endif // LEO_CORE_LEO_SYSTEM_HH

/**
 * @file
 * Deterministic fault injection for the online telemetry path.
 *
 * LEO's value is *online* operation (Section 6.6): the controller
 * keeps estimating and re-planning while the application runs, so a
 * single NaN power reading or a stuck sensor must never crash or
 * silently corrupt a fit. Related online-estimation systems (REOH,
 * arXiv:1801.10263; "The Case for Learning Application Behavior",
 * arXiv:2004.13074) both identify noisy and partial runtime
 * measurements as the practical failure mode.
 *
 * This subsystem wraps the simulated meters of telemetry/meters.hh
 * with seeded fault injectors so the robustness of the
 * telemetry -> estimator -> optimizer -> runtime path can be tested
 * deterministically. The fault stream draws from its own Rng (seeded
 * per scenario), so wrapping a meter never perturbs the measurement
 * noise stream: with every fault probability at zero a wrapped meter
 * is bitwise identical to the bare one.
 */

#ifndef LEO_FAULTS_FAULTS_HH
#define LEO_FAULTS_FAULTS_HH

#include <cstddef>
#include <cstdint>

#include "stats/rng.hh"
#include "telemetry/meters.hh"

namespace leo::faults
{

/**
 * A fault scenario: per-reading probabilities of each fault class.
 *
 * At most one fault fires per reading (the classes partition one
 * uniform draw), so the probabilities must sum to <= 1.
 */
struct FaultScenario
{
    /** Seed of the fault stream (independent of measurement noise). */
    std::uint64_t seed = 0xfa017u;
    /** P(reading becomes quiet NaN) — a failed sensor poll. */
    double nanProb = 0.0;
    /** P(reading becomes +infinity) — a counter overflow artifact. */
    double infProb = 0.0;
    /** P(reading becomes 0) — a dropout (the sensor returned
     *  nothing and the harness reported an empty sample). */
    double dropoutProb = 0.0;
    /** P(reading is scaled by outlierScale) — an aliased burst. */
    double outlierProb = 0.0;
    /** Multiplier applied by an outlier fault. */
    double outlierScale = 10.0;
    /** P(reading repeats the previous emitted reading) — a stale
     *  cache / stuck register. The first reading cannot be stale. */
    double staleProb = 0.0;

    /** @return True iff any fault class can fire. */
    bool enabled() const
    {
        return nanProb > 0.0 || infProb > 0.0 || dropoutProb > 0.0 ||
               outlierProb > 0.0 || staleProb > 0.0;
    }

    /** @return The all-zero scenario (wrapping becomes identity). */
    static FaultScenario none() { return FaultScenario{}; }
};

/**
 * Applies a FaultScenario to a stream of readings.
 *
 * Deterministic: the corrupted stream is a pure function of the
 * scenario seed and the clean reading sequence. Exactly one uniform
 * draw is consumed per reading, so which faults fire never shifts
 * the alignment of later ones.
 */
class FaultInjector
{
  public:
    /** @param scenario The fault mix to inject. */
    explicit FaultInjector(const FaultScenario &scenario);

    /**
     * Pass one clean reading through the fault model.
     *
     * @param clean The true (noisy but valid) reading.
     * @return The possibly corrupted reading.
     */
    double corrupt(double clean);

    /** @return Readings processed so far. */
    std::size_t readings() const { return readings_; }

    /** @return Readings that were corrupted. */
    std::size_t faultsInjected() const { return faults_; }

  private:
    FaultScenario scenario_;
    stats::Rng rng_;
    double last_ = 0.0;
    bool have_last_ = false;
    std::size_t readings_ = 0;
    std::size_t faults_ = 0;
};

/**
 * A PowerMeter whose readings pass through a FaultInjector.
 *
 * With FaultScenario::none() the wrapper is bitwise identical to the
 * inner meter (same noise stream, same values).
 */
class FaultyPowerMeter : public telemetry::PowerMeter
{
  public:
    /**
     * @param inner    The real meter (borrowed).
     * @param scenario Faults to inject into its readings.
     */
    FaultyPowerMeter(const telemetry::PowerMeter &inner,
                     const FaultScenario &scenario);

    double read(const workloads::ApplicationBehavior &model,
                const platform::ResourceAssignment &ra,
                stats::Rng &rng) const override;

    /** @return The injector (fault counters). */
    const FaultInjector &injector() const { return injector_; }

  private:
    const telemetry::PowerMeter &inner_;
    /** Mutable: read() is const on meters, but the fault stream (its
     *  Rng and the stale-repeat memory) advances per reading. */
    mutable FaultInjector injector_;
};

/**
 * A HeartbeatMonitor whose rate windows pass through a FaultInjector.
 */
class FaultyHeartbeatMonitor : public telemetry::HeartbeatMonitor
{
  public:
    /**
     * @param inner    The real monitor (borrowed).
     * @param scenario Faults to inject into its windows.
     */
    FaultyHeartbeatMonitor(const telemetry::HeartbeatMonitor &inner,
                           const FaultScenario &scenario);

    double measureRate(const workloads::ApplicationBehavior &model,
                       const platform::ResourceAssignment &ra,
                       stats::Rng &rng) const override;

    /** @return The injector (fault counters). */
    const FaultInjector &injector() const { return injector_; }

  private:
    const telemetry::HeartbeatMonitor &inner_;
    mutable FaultInjector injector_;
};

} // namespace leo::faults

#endif // LEO_FAULTS_FAULTS_HH

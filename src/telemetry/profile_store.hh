/**
 * @file
 * The offline profile database.
 *
 * LEO "assumes that there is some set of applications for which the
 * power and performance tradeoffs are gathered offline" (Section 1).
 * The ProfileStore is that set: one fully-measured performance and
 * power vector per previously-seen application. The evaluation uses
 * leave-one-out views — when estimating benchmark k, the other 24
 * benchmarks form the prior.
 */

#ifndef LEO_TELEMETRY_PROFILE_STORE_HH
#define LEO_TELEMETRY_PROFILE_STORE_HH

#include <string>
#include <vector>

#include "platform/config_space.hh"
#include "telemetry/meters.hh"
#include "workloads/app_model.hh"

namespace leo::telemetry
{

/** One offline-profiled application. */
struct ApplicationRecord
{
    /** Benchmark name. */
    std::string name;
    /** Measured heartbeat rate in every configuration. */
    linalg::Vector performance;
    /** Measured wall power in every configuration. */
    linalg::Vector power;
};

/**
 * An immutable collection of offline application profiles over one
 * configuration space.
 */
class ProfileStore
{
  public:
    /** Build from existing records (tests, custom priors). */
    explicit ProfileStore(std::vector<ApplicationRecord> records);

    /**
     * Profile a set of applications exhaustively, with measurement
     * noise — the simulator equivalent of the paper's offline data
     * collection (which took up to days per application).
     *
     * @param profiles Applications to profile.
     * @param machine  The machine they run on.
     * @param space    Configuration space to cover.
     * @param monitor  Heartbeat monitor.
     * @param meter    Power meter.
     * @param rng      Measurement noise source.
     */
    static ProfileStore collect(
        const std::vector<workloads::ApplicationProfile> &profiles,
        const platform::Machine &machine,
        const platform::ConfigSpace &space,
        const HeartbeatMonitor &monitor, const PowerMeter &meter,
        stats::Rng &rng);

    /** @return Number of stored applications. */
    std::size_t numApplications() const { return records_.size(); }

    /** @return Number of configurations per record. */
    std::size_t spaceSize() const;

    /** @return All records. */
    const std::vector<ApplicationRecord> &records() const
    {
        return records_;
    }

    /** @return True iff an application of that name is stored. */
    bool contains(const std::string &name) const;

    /**
     * @return A copy of the store without the named application
     *         (no-op if absent) — the leave-one-out prior.
     */
    ProfileStore without(const std::string &name) const;

  private:
    std::vector<ApplicationRecord> records_;
};

} // namespace leo::telemetry

#endif // LEO_TELEMETRY_PROFILE_STORE_HH

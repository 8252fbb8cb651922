/**
 * @file
 * Enumerated configuration spaces.
 *
 * LEO's estimators see the system as a flat vector of n configurations
 * (the paper's C with n = |C|). The flattening order matters for the
 * figures: per Section 6.3, "the number of memory controllers is the
 * fastest changing component of configuration, followed by clockspeed,
 * followed by number of cores" (hyperthreading changes slowest), which
 * produces the saw-tooth curves of Figures 7 and 8.
 */

#ifndef LEO_PLATFORM_CONFIG_SPACE_HH
#define LEO_PLATFORM_CONFIG_SPACE_HH

#include <string>
#include <vector>

#include "linalg/vector.hh"
#include "platform/machine.hh"

namespace leo::platform
{

/**
 * An immutable, ordered list of system configurations together with
 * the physical resources each grants and the raw knob values used as
 * regression predictors by the Online baseline.
 */
class ConfigSpace
{
  public:
    /**
     * The full factorial space of the evaluation platform: 16 cores x
     * 2 hyperthreads x 2 memory controllers x 16 speed settings = 1024
     * configurations, flattened with memory controllers fastest, then
     * speed, then cores, then hyperthreading.
     */
    static ConfigSpace fullFactorial(const Machine &machine);

    /**
     * The Section 2 motivational space: logical core allocation only,
     * 1..32 cores at the top DVFS setting, n = 32.
     */
    static ConfigSpace coreOnly(const Machine &machine);

    /**
     * A reduced factorial space (for fast tests and quick benches):
     * every knob subsampled by the given strides.
     */
    static ConfigSpace reducedFactorial(const Machine &machine,
                                        unsigned core_stride,
                                        unsigned speed_stride);

    /** @return Number of configurations n = |C|. */
    std::size_t size() const { return assignments_.size(); }

    /** @return The physical resources of configuration c. */
    const ResourceAssignment &assignment(std::size_t c) const;

    /**
     * @return The raw knob values of configuration c, the predictors
     *         of the Online baseline's polynomial regression.
     */
    const linalg::Vector &knobs(std::size_t c) const;

    /** @return Number of raw knobs per configuration. */
    std::size_t numKnobs() const { return num_knobs_; }

    /** @return A short name for the space ("full1024", "cores32", ...). */
    const std::string &name() const { return name_; }

    /** @return Human-readable label of configuration c. */
    std::string describe(std::size_t c) const;

  private:
    ConfigSpace() = default;

    std::string name_;
    std::size_t num_knobs_ = 0;
    std::vector<ResourceAssignment> assignments_;
    std::vector<linalg::Vector> knobs_;
    std::vector<Config> configs_; // empty for core-only spaces
};

} // namespace leo::platform

#endif // LEO_PLATFORM_CONFIG_SPACE_HH

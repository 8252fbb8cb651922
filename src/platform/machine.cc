/**
 * @file
 * Implementation of the machine model.
 */

#include "platform/machine.hh"

#include <algorithm>
#include <sstream>

#include "linalg/error.hh"

namespace leo::platform
{

std::string
Config::describe() const
{
    std::ostringstream os;
    os << cores << "c x" << threadsPerCore << " " << memControllers
       << "m s" << speedIdx;
    return os.str();
}

Machine::Machine(MachineSpec spec) : spec_(spec)
{
    require(spec_.coresPerSocket >= 1 && spec_.sockets >= 1,
            "Machine: need at least one core and socket");
    require(spec_.dvfsSteps >= 2, "Machine: need at least 2 DVFS steps");
    require(spec_.maxFreqGHz > spec_.minFreqGHz,
            "Machine: max frequency must exceed min frequency");
}

double
Machine::frequencyGHz(unsigned speed_idx, unsigned active_cores) const
{
    require(speed_idx < spec_.speedSettings(),
            "Machine: speed index out of range");
    if (speed_idx < spec_.dvfsSteps) {
        const double step =
            (spec_.maxFreqGHz - spec_.minFreqGHz) /
            static_cast<double>(spec_.dvfsSteps - 1);
        return spec_.minFreqGHz + step * static_cast<double>(speed_idx);
    }
    // TurboBoost: frequency bins down as more cores are active.
    const unsigned total = spec_.totalCores();
    const double share =
        total <= 1 ? 0.0
                   : static_cast<double>(
                         std::min(active_cores, total) - 1) /
                         static_cast<double>(total - 1);
    return spec_.turboPeakGHz -
           share * (spec_.turboPeakGHz - spec_.turboAllCoreGHz);
}

ResourceAssignment
Machine::assignment(const Config &cfg) const
{
    require(valid(cfg), "Machine: invalid configuration " +
                            cfg.describe());
    ResourceAssignment ra;
    ra.activeCores = cfg.cores;
    ra.threads = cfg.cores * cfg.threadsPerCore;
    ra.htShare = cfg.threadsPerCore == 2 ? 0.5 : 0.0;
    ra.memControllers = cfg.memControllers;
    ra.turbo = cfg.speedIdx == spec_.dvfsSteps;
    ra.freqGHz = frequencyGHz(cfg.speedIdx, cfg.cores);
    ra.activeSockets =
        (cfg.cores + spec_.coresPerSocket - 1) / spec_.coresPerSocket;
    return ra;
}

ResourceAssignment
Machine::coreOnlyAssignment(unsigned logical_cores) const
{
    const unsigned max_logical =
        spec_.totalCores() * spec_.threadsPerCore;
    require(logical_cores >= 1 && logical_cores <= max_logical,
            "Machine: logical core count out of range");
    ResourceAssignment ra;
    ra.threads = logical_cores;
    const unsigned physical = std::min(logical_cores, spec_.totalCores());
    ra.activeCores = physical;
    const unsigned siblings = logical_cores - physical;
    ra.htShare = static_cast<double>(siblings) /
                 static_cast<double>(logical_cores);
    ra.memControllers = spec_.memControllers;
    // The Section 2 example varies cores only; speed stays at the top
    // non-turbo setting.
    ra.turbo = false;
    ra.freqGHz = spec_.maxFreqGHz;
    ra.activeSockets =
        (physical + spec_.coresPerSocket - 1) / spec_.coresPerSocket;
    return ra;
}

bool
Machine::valid(const Config &cfg) const
{
    return cfg.cores >= 1 && cfg.cores <= spec_.totalCores() &&
           (cfg.threadsPerCore >= 1 &&
            cfg.threadsPerCore <= spec_.threadsPerCore) &&
           (cfg.memControllers >= 1 &&
            cfg.memControllers <= spec_.memControllers) &&
           cfg.speedIdx < spec_.speedSettings();
}

} // namespace leo::platform

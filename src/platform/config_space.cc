/**
 * @file
 * Implementation of configuration space enumeration.
 */

#include "platform/config_space.hh"

#include <sstream>

namespace leo::platform
{

ConfigSpace
ConfigSpace::fullFactorial(const Machine &machine)
{
    return reducedFactorial(machine, 1, 1);
}

ConfigSpace
ConfigSpace::reducedFactorial(const Machine &machine,
                              unsigned core_stride, unsigned speed_stride)
{
    require(core_stride >= 1 && speed_stride >= 1,
            "ConfigSpace: strides must be >= 1");
    const MachineSpec &spec = machine.spec();

    ConfigSpace space;
    space.num_knobs_ = 4;

    // Order: hyperthreading slowest, then cores, then speed, then
    // memory controllers fastest (Section 6.3).
    for (unsigned tpc = 1; tpc <= spec.threadsPerCore; ++tpc) {
        for (unsigned cores = 1; cores <= spec.totalCores();
             cores += core_stride) {
            for (unsigned speed = 0; speed < spec.speedSettings();
                 speed += speed_stride) {
                for (unsigned mc = 1; mc <= spec.memControllers; ++mc) {
                    Config cfg{cores, tpc, mc, speed};
                    space.configs_.push_back(cfg);
                    space.assignments_.push_back(
                        machine.assignment(cfg));
                    space.knobs_.push_back(linalg::Vector{
                        static_cast<double>(cores),
                        static_cast<double>(tpc),
                        static_cast<double>(mc),
                        static_cast<double>(speed)});
                }
            }
        }
    }

    std::ostringstream name;
    if (core_stride == 1 && speed_stride == 1) {
        name << "full" << space.size();
    } else {
        name << "reduced" << space.size();
    }
    space.name_ = name.str();
    return space;
}

ConfigSpace
ConfigSpace::coreOnly(const Machine &machine)
{
    const MachineSpec &spec = machine.spec();
    const unsigned max_logical = spec.totalCores() * spec.threadsPerCore;

    ConfigSpace space;
    space.num_knobs_ = 1;
    for (unsigned k = 1; k <= max_logical; ++k) {
        space.assignments_.push_back(machine.coreOnlyAssignment(k));
        space.knobs_.push_back(
            linalg::Vector{static_cast<double>(k)});
    }
    std::ostringstream name;
    name << "cores" << space.size();
    space.name_ = name.str();
    return space;
}

const ResourceAssignment &
ConfigSpace::assignment(std::size_t c) const
{
    require(c < assignments_.size(), "ConfigSpace index out of range");
    return assignments_[c];
}

const linalg::Vector &
ConfigSpace::knobs(std::size_t c) const
{
    require(c < knobs_.size(), "ConfigSpace index out of range");
    return knobs_[c];
}

std::string
ConfigSpace::describe(std::size_t c) const
{
    require(c < assignments_.size(), "ConfigSpace index out of range");
    if (!configs_.empty())
        return configs_[c].describe();
    std::ostringstream os;
    os << assignments_[c].threads << " logical cores";
    return os.str();
}

} // namespace leo::platform

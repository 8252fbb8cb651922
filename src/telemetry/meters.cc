/**
 * @file
 * Implementation of the simulated meters.
 */

#include "telemetry/meters.hh"

#include <algorithm>
#include <cmath>

#include "linalg/error.hh"

namespace leo::telemetry
{

WattsUpMeter::WattsUpMeter(double relative_noise, double quantum)
    : relative_noise_(relative_noise), quantum_(quantum)
{
    require(relative_noise_ >= 0.0, "WattsUpMeter: negative noise");
    require(quantum_ >= 0.0, "WattsUpMeter: negative quantum");
}

double
WattsUpMeter::read(const workloads::ApplicationBehavior &model,
                   const platform::ResourceAssignment &ra,
                   stats::Rng &rng) const
{
    const double truth = model.powerWatts(ra);
    double reading = truth * (1.0 + rng.gaussian(0.0, relative_noise_));
    if (quantum_ > 0.0)
        reading = std::round(reading / quantum_) * quantum_;
    return std::max(reading, 0.0);
}

HeartbeatMonitor::HeartbeatMonitor(double relative_noise)
    : relative_noise_(relative_noise)
{
    require(relative_noise_ >= 0.0, "HeartbeatMonitor: negative noise");
}

double
HeartbeatMonitor::measureRate(const workloads::ApplicationBehavior &model,
                              const platform::ResourceAssignment &ra,
                              stats::Rng &rng) const
{
    const double truth = model.heartbeatRate(ra);
    const double reading =
        truth * (1.0 + rng.gaussian(0.0, relative_noise_));
    return std::max(reading, 1e-9);
}

} // namespace leo::telemetry

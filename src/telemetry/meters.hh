/**
 * @file
 * Simulated power meters and the heartbeat monitor.
 *
 * The testbed of Section 6.1 is instrumented with a WattsUp wall
 * meter (total system power at 1 s intervals) and the Application
 * Heartbeats library for performance feedback. These classes
 * reproduce those interfaces over the application models, injecting
 * the measurement noise that the first layer of the hierarchical
 * model (Figure 3, "filtration layer") exists to absorb.
 */

#ifndef LEO_TELEMETRY_METERS_HH
#define LEO_TELEMETRY_METERS_HH

#include "platform/config.hh"
#include "stats/rng.hh"
#include "workloads/app_model.hh"

namespace leo::telemetry
{

/**
 * Abstract power meter: reads Watts for an application running in a
 * configuration.
 */
class PowerMeter
{
  public:
    virtual ~PowerMeter() = default;

    /**
     * Take one reading.
     *
     * @param model The running application.
     * @param ra    Its resource assignment.
     * @param rng   Noise source.
     * @return Measured Watts.
     */
    virtual double read(const workloads::ApplicationBehavior &model,
                        const platform::ResourceAssignment &ra,
                        stats::Rng &rng) const = 0;
};

/**
 * WattsUp-style wall meter: total system power, 1 s interval, 0.1 W
 * display quantization, a percent-scale gaussian error.
 */
class WattsUpMeter : public PowerMeter
{
  public:
    /**
     * @param relative_noise 1-sigma relative error of a reading.
     * @param quantum        Display quantization in Watts.
     */
    explicit WattsUpMeter(double relative_noise = 0.01,
                          double quantum = 0.1);

    double read(const workloads::ApplicationBehavior &model,
                const platform::ResourceAssignment &ra,
                stats::Rng &rng) const override;

  private:
    double relative_noise_;
    double quantum_;
};

/**
 * Application Heartbeats monitor: measures the application-defined
 * performance metric (heartbeats/s) over a window, with relative
 * noise from scheduling jitter.
 *
 * measureRate() is virtual so decorators (the fault injectors of
 * faults/faults.hh) can interpose on the reading stream.
 */
class HeartbeatMonitor
{
  public:
    /** @param relative_noise 1-sigma relative error of a window. */
    explicit HeartbeatMonitor(double relative_noise = 0.02);

    virtual ~HeartbeatMonitor() = default;

    /**
     * Measure the heartbeat rate over one window.
     *
     * @param model The running application.
     * @param ra    Its resource assignment.
     * @param rng   Noise source.
     * @return Measured heartbeats/s.
     */
    virtual double measureRate(const workloads::ApplicationBehavior &model,
                               const platform::ResourceAssignment &ra,
                               stats::Rng &rng) const;

  private:
    double relative_noise_;
};

} // namespace leo::telemetry

#endif // LEO_TELEMETRY_METERS_HH

/**
 * @file
 * Synthetic application models.
 *
 * Stand-ins for the paper's 25 instrumented benchmarks (Section 6.1).
 * Each model maps a ResourceAssignment to a noise-free true heartbeat
 * rate (performance) and wall power; the telemetry layer adds
 * measurement noise on top. The models combine:
 *
 *  - a thread-scaling curve (Amdahl / peaked / saturating / linear /
 *    logarithmic) with hyperthread-efficiency discounting,
 *  - an IO-bound serial fraction insensitive to both parallelism and
 *    frequency,
 *  - a frequency-sensitivity blend (memory-stall time does not scale
 *    with clock),
 *  - a roofline-style memory-bandwidth ceiling driven by the number
 *    of memory controllers (the saw-tooth of Figs. 7-8),
 *  - a NUMA penalty when threads span two sockets but only one
 *    memory controller is bound, and
 *  - a deterministic per-configuration "texture" ripple modelling the
 *    reproducible quirks real applications show on real machines.
 *
 * Power follows from utilization: cores stalled on memory burn less
 * than busy cores, IO-blocked threads burn almost nothing, spinning
 * past a scaling peak burns full power while performance falls — the
 * combination that makes racing-to-idle a poor heuristic (Section 2).
 */

#ifndef LEO_WORKLOADS_APP_MODEL_HH
#define LEO_WORKLOADS_APP_MODEL_HH

#include <cstdint>
#include <memory>
#include <string>

#include "platform/machine.hh"
#include "workloads/scaling.hh"

namespace leo::workloads
{

/** Which scaling-curve family an application uses. */
enum class ScalingKind
{
    Amdahl,     //!< Classic Amdahl's-law scaling.
    Peaked,     //!< Scales to a peak, then collapses (kmeans).
    Saturating, //!< Scales to a point, then flat (x264).
    Linear,     //!< Near-linear embarrassing parallelism.
    Log         //!< Logarithmic scaling (irregular codes).
};

/**
 * Plain-value description of one application. Everything the model
 * needs, serializable and cheap to copy.
 */
struct ApplicationProfile
{
    /** Benchmark name, e.g. "kmeans". */
    std::string name;
    /** Originating suite, e.g. "minebench". */
    std::string suite;
    /** Heartbeat rate at 1 thread, top non-turbo speed, all MCs. */
    double baseHeartbeatRate = 10.0;
    /** Scaling-curve family. */
    ScalingKind kind = ScalingKind::Amdahl;
    /** Amdahl parallel fraction / linear efficiency / log gain. */
    double scaleParam = 0.9;
    /** Peak (Peaked) or saturation (Saturating) thread count. */
    double scalePeak = 16.0;
    /** Per-thread decay factor past the peak (Peaked only). */
    double scaleDecay = 0.95;
    /** Contribution of a hyperthread sibling relative to a core. */
    double htEfficiency = 0.3;
    /** Fraction of work that scales with clock frequency, in [0,1]. */
    double freqSensitivity = 0.8;
    /** Bandwidth demand per effective thread at top speed, as a
     *  fraction of one memory controller's bandwidth. */
    double memIntensity = 0.05;
    /** Fraction of time blocked on IO (serial, frequency-blind). */
    double ioBoundFraction = 0.0;
    /** Core switching-activity multiplier (power). */
    double activityFactor = 1.0;
    /** Power burned by a memory-stalled core relative to a busy one.
     *  Spin-wait-heavy codes stay near 1; codes that sleep in the
     *  memory controller queue drop toward 0.25. */
    double stallActivity = 0.45;
    /** Amplitude of the deterministic per-config ripple. */
    double textureAmplitude = 0.02;
    /** Seed of the ripple (per application). */
    std::uint64_t textureSeed = 1;
};

/**
 * Abstract application behavior: anything that maps a resource
 * assignment to a true heartbeat rate and power draw. The analytic
 * ApplicationModel below and the trace-replay backend
 * (workloads/trace.hh) both implement it, so every estimator,
 * sampler, bench and the service can consume either interchangeably.
 */
class ApplicationBehavior
{
  public:
    virtual ~ApplicationBehavior() = default;

    /** @return The application's name. */
    virtual const std::string &name() const = 0;

    /** True heartbeat rate (noise free) in the configuration. */
    virtual double
    heartbeatRate(const platform::ResourceAssignment &ra) const = 0;

    /** True wall power in the configuration, incl. idle baseline. */
    virtual double
    powerWatts(const platform::ResourceAssignment &ra) const = 0;

    /** Wall power of the idle system. */
    virtual double idlePowerWatts() const = 0;
};

/**
 * Evaluates an ApplicationProfile on a Machine.
 */
class ApplicationModel : public ApplicationBehavior
{
  public:
    /**
     * @param profile The application description.
     * @param machine The machine it runs on (borrowed; must outlive
     *                the model).
     */
    ApplicationModel(ApplicationProfile profile,
                     const platform::Machine &machine);

    /** @return The profile this model evaluates. */
    const ApplicationProfile &profile() const { return profile_; }

    /** @return The application's name. */
    const std::string &name() const override { return profile_.name; }

    /**
     * True heartbeat rate in the given configuration.
     *
     * @param ra Resources granted.
     * @return Heartbeats per second (noise free).
     */
    double heartbeatRate(
        const platform::ResourceAssignment &ra) const override;

    /**
     * True wall ("WattsUp") power in the given configuration.
     *
     * @param ra Resources granted.
     * @return Watts, including the idle baseline (noise free).
     */
    double
    powerWatts(const platform::ResourceAssignment &ra) const override;

    /** Wall power of the idle system. */
    double idlePowerWatts() const override;

  private:
    /** Shared performance computation. */
    struct PerfBreakdown
    {
        double effParallelism;  //!< After HT discounting.
        double computeRate;     //!< Scaling x frequency, pre-ceiling.
        double achievedRate;    //!< After memory ceiling and NUMA.
        double computeFraction; //!< achieved / compute (<= 1).
    };
    PerfBreakdown perf(const platform::ResourceAssignment &ra) const;

    /** Chip power (both sockets) before the texture ripple. */
    double chipPowerRaw(const platform::ResourceAssignment &ra) const;

    /** Deterministic ripple factor in [1-amp, 1+amp]. */
    double texture(const platform::ResourceAssignment &ra,
                   std::uint64_t salt) const;

    ApplicationProfile profile_;
    const platform::Machine &machine_;
    std::unique_ptr<ScalingCurve> curve_;
};

/** Build the scaling curve described by a profile. */
std::unique_ptr<ScalingCurve> makeScalingCurve(
    const ApplicationProfile &profile);

} // namespace leo::workloads

#endif // LEO_WORKLOADS_APP_MODEL_HH

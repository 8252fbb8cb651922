/**
 * @file
 * Implementation of the synthetic application models.
 */

#include "workloads/app_model.hh"

#include <algorithm>
#include <cmath>

#include "linalg/error.hh"

namespace leo::workloads
{

namespace
{

/** SplitMix64 mixing step, used for the deterministic texture. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

} // namespace

std::unique_ptr<ScalingCurve>
makeScalingCurve(const ApplicationProfile &profile)
{
    switch (profile.kind) {
      case ScalingKind::Amdahl:
        return std::make_unique<AmdahlScaling>(profile.scaleParam);
      case ScalingKind::Peaked:
        return std::make_unique<PeakedScaling>(
            profile.scaleParam, profile.scalePeak, profile.scaleDecay);
      case ScalingKind::Saturating:
        return std::make_unique<SaturatingScaling>(profile.scaleParam,
                                                   profile.scalePeak);
      case ScalingKind::Linear:
        return std::make_unique<LinearScaling>(profile.scaleParam);
      case ScalingKind::Log:
        return std::make_unique<LogScaling>(profile.scaleParam);
    }
    panic("makeScalingCurve: unknown scaling kind");
}

ApplicationModel::ApplicationModel(ApplicationProfile profile,
                                   const platform::Machine &machine)
    : profile_(std::move(profile)), machine_(machine),
      curve_(makeScalingCurve(profile_))
{
    require(profile_.baseHeartbeatRate > 0.0,
            "ApplicationModel: base heartbeat rate must be > 0");
    require(profile_.htEfficiency >= 0.0 && profile_.htEfficiency <= 1.0,
            "ApplicationModel: htEfficiency must be in [0, 1]");
    require(profile_.freqSensitivity >= 0.0 &&
                profile_.freqSensitivity <= 1.0,
            "ApplicationModel: freqSensitivity must be in [0, 1]");
    require(profile_.ioBoundFraction >= 0.0 &&
                profile_.ioBoundFraction < 1.0,
            "ApplicationModel: ioBoundFraction must be in [0, 1)");
    require(profile_.memIntensity >= 0.0,
            "ApplicationModel: memIntensity must be >= 0");
    require(profile_.stallActivity >= 0.0 &&
                profile_.stallActivity <= 1.0,
            "ApplicationModel: stallActivity must be in [0, 1]");
}

ApplicationModel::PerfBreakdown
ApplicationModel::perf(const platform::ResourceAssignment &ra) const
{
    const platform::MachineSpec &spec = machine_.spec();
    PerfBreakdown out;

    // Hyperthread siblings contribute a discounted share of a core.
    const unsigned siblings = ra.threads - ra.activeCores;
    out.effParallelism = std::max(
        1.0, static_cast<double>(ra.activeCores) +
                 profile_.htEfficiency * static_cast<double>(siblings));

    // Thread scaling of the CPU-bound portion.
    const double s_threads = curve_->speedup(out.effParallelism);

    // Frequency response: only the compute-bound share speeds up with
    // the clock; memory stalls and fixed-latency work do not.
    const double f_rel = ra.freqGHz / spec.maxFreqGHz;
    const double s_freq =
        (1.0 - profile_.freqSensitivity) +
        profile_.freqSensitivity * f_rel;

    out.computeRate = s_threads * s_freq;

    // Roofline memory ceiling: one controller sustains demand
    // 1/memIntensity (in speedup units); two controllers double it.
    double rate = out.computeRate;
    if (profile_.memIntensity > 0.0) {
        const double ceiling =
            static_cast<double>(ra.memControllers) /
            profile_.memIntensity;
        // Smooth minimum of compute rate and bandwidth ceiling.
        const double q = 4.0;
        rate = std::pow(std::pow(rate, -q) + std::pow(ceiling, -q),
                        -1.0 / q);
    }

    // NUMA penalty: threads on a remote socket relative to the bound
    // memory controller pay latency on every miss.
    if (ra.activeSockets > ra.memControllers) {
        const double penalty =
            std::min(0.25, 0.9 * profile_.memIntensity);
        rate *= 1.0 - penalty;
    }

    out.computeFraction =
        out.computeRate > 0.0 ? std::min(1.0, rate / out.computeRate)
                              : 1.0;

    // The IO-bound share neither parallelizes nor scales with clock:
    // overall rate is the harmonic blend of the two shares.
    const double io = profile_.ioBoundFraction;
    out.achievedRate = 1.0 / (io + (1.0 - io) / rate);
    return out;
}

double
ApplicationModel::heartbeatRate(
    const platform::ResourceAssignment &ra) const
{
    const PerfBreakdown pb = perf(ra);
    return profile_.baseHeartbeatRate * pb.achievedRate *
           texture(ra, 0x9e1f);
}

double
ApplicationModel::chipPowerRaw(
    const platform::ResourceAssignment &ra) const
{
    const platform::MachineSpec &spec = machine_.spec();
    const PerfBreakdown pb = perf(ra);

    // Per-core switching activity: busy cycles burn full dynamic
    // power, memory-stalled cycles burn a fraction, IO-blocked time
    // burns almost nothing.
    const double io = profile_.ioBoundFraction;
    const double busy = pb.computeFraction;
    const double act =
        profile_.activityFactor *
        ((1.0 - io) *
             (busy * 1.0 + (1.0 - busy) * profile_.stallActivity) +
         io * 0.08);

    // The assignment carries a frequency, not a speed index, so
    // reconstruct the operating voltage from the linear V/f curve.
    double voltage;
    if (ra.turbo) {
        voltage = spec.maxVoltage + spec.turboVoltageBumpV;
    } else {
        const double t = (ra.freqGHz - spec.minFreqGHz) /
                         (spec.maxFreqGHz - spec.minFreqGHz);
        voltage = spec.minVoltage +
                  std::clamp(t, 0.0, 1.0) *
                      (spec.maxVoltage - spec.minVoltage);
    }

    const unsigned siblings = ra.threads - ra.activeCores;
    const double contexts =
        static_cast<double>(ra.activeCores) +
        spec.htPowerRatio * static_cast<double>(siblings);

    const double dyn = spec.dynPowerCoeff * ra.freqGHz * voltage *
                       voltage * act * contexts;
    const double stat =
        spec.corePowerStaticW * static_cast<double>(ra.activeCores);
    const double uncore = spec.uncorePowerPerSocketW *
                          static_cast<double>(ra.activeSockets);

    // TDP clamp: the package power-caps itself.
    const double cap = spec.tdpPerSocketW *
                       static_cast<double>(ra.activeSockets);
    return std::min(dyn + stat + uncore, cap);
}

double
ApplicationModel::powerWatts(const platform::ResourceAssignment &ra) const
{
    const platform::MachineSpec &spec = machine_.spec();
    const double mc_power =
        spec.memControllerPowerW *
        static_cast<double>(ra.memControllers);
    return spec.idleSystemPowerW + mc_power +
           chipPowerRaw(ra) * texture(ra, 0x77a3);
}

double
ApplicationModel::idlePowerWatts() const
{
    return machine_.spec().idleSystemPowerW;
}

double
ApplicationModel::texture(const platform::ResourceAssignment &ra,
                          std::uint64_t salt) const
{
    if (profile_.textureAmplitude <= 0.0)
        return 1.0;
    // Hash the physically meaningful fields so identical assignments
    // always see the identical ripple.
    std::uint64_t h = profile_.textureSeed ^ (salt * 0x100000001b3ull);
    h = mix64(h ^ ra.threads);
    h = mix64(h ^ (static_cast<std::uint64_t>(ra.activeCores) << 8));
    h = mix64(h ^ (static_cast<std::uint64_t>(ra.memControllers) << 16));
    h = mix64(h ^ static_cast<std::uint64_t>(ra.freqGHz * 1e6));
    h = mix64(h ^ (ra.turbo ? 0xbeefull : 0x1ull));
    const double u =
        static_cast<double>(h >> 11) /
        static_cast<double>(1ull << 53); // [0, 1)
    return 1.0 + profile_.textureAmplitude * (2.0 * u - 1.0);
}

} // namespace leo::workloads

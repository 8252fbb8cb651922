/**
 * @file
 * Thread-scaling curves for the synthetic application models.
 *
 * Section 6.3 stresses that real applications exhibit qualitatively
 * different responses to parallelism: "performance for Kmeans peaks at
 * 8 cores, for Swish it peaks at 16 cores, and for x264 it is
 * (essentially) constant after 16 cores". These curve families
 * reproduce exactly those shapes — including the local extrema LEO is
 * designed to be robust to (Section 5.5).
 */

#ifndef LEO_WORKLOADS_SCALING_HH
#define LEO_WORKLOADS_SCALING_HH

#include <memory>
#include <string>

namespace leo::workloads
{

/**
 * Abstract speedup-versus-parallelism curve.
 *
 * speedup() maps an *effective* thread count (possibly fractional,
 * after hyperthread-efficiency discounting) to a speedup relative to
 * one thread. Implementations must return 1 at k = 1 and be positive
 * everywhere.
 */
class ScalingCurve
{
  public:
    virtual ~ScalingCurve() = default;

    /**
     * @param k Effective parallelism (>= 1, possibly fractional).
     * @return Speedup over one thread.
     */
    virtual double speedup(double k) const = 0;

    /** @return A short name for diagnostics ("amdahl", "peaked", ...). */
    virtual std::string name() const = 0;
};

/**
 * Classic Amdahl scaling: S(k) = 1 / ((1 - p) + p / k).
 */
class AmdahlScaling : public ScalingCurve
{
  public:
    /** @param parallel_fraction Parallelizable fraction p in [0, 1]. */
    explicit AmdahlScaling(double parallel_fraction);

    double speedup(double k) const override;
    std::string name() const override { return "amdahl"; }

  private:
    double p_;
};

/**
 * Amdahl scaling that collapses past a peak: beyond k* each extra
 * thread multiplies performance by a decay factor < 1 (lock
 * contention, cache thrash). Kmeans-like: peak at 8, sharp fall.
 */
class PeakedScaling : public ScalingCurve
{
  public:
    /**
     * @param parallel_fraction Amdahl p used up to the peak.
     * @param peak              Thread count k* of maximum speedup.
     * @param decay             Per-extra-thread multiplier in (0, 1).
     */
    PeakedScaling(double parallel_fraction, double peak, double decay);

    double speedup(double k) const override;
    std::string name() const override { return "peaked"; }

  private:
    AmdahlScaling base_;
    double peak_;
    double decay_;
};

/**
 * Amdahl scaling that saturates: speedup is frozen past k*
 * (x264-like: essentially constant after 16 threads).
 */
class SaturatingScaling : public ScalingCurve
{
  public:
    /**
     * @param parallel_fraction Amdahl p used up to saturation.
     * @param saturation        Thread count past which speedup is flat.
     */
    SaturatingScaling(double parallel_fraction, double saturation);

    double speedup(double k) const override;
    std::string name() const override { return "saturating"; }

  private:
    AmdahlScaling base_;
    double saturation_;
};

/**
 * Gustafson-flavoured near-linear scaling with a mild efficiency
 * taper: S(k) = 1 + e (k - 1) with e slightly below 1
 * (swaptions/blackscholes-like embarrassing parallelism).
 */
class LinearScaling : public ScalingCurve
{
  public:
    /** @param efficiency Per-thread marginal efficiency in (0, 1]. */
    explicit LinearScaling(double efficiency);

    double speedup(double k) const override;
    std::string name() const override { return "linear"; }

  private:
    double efficiency_;
};

/**
 * Logarithmic scaling for irregular, synchronization-heavy codes
 * (graph traversal): S(k) = 1 + a ln(k).
 */
class LogScaling : public ScalingCurve
{
  public:
    /** @param gain Multiplier a on ln(k). */
    explicit LogScaling(double gain);

    double speedup(double k) const override;
    std::string name() const override { return "log"; }

  private:
    double gain_;
};

} // namespace leo::workloads

#endif // LEO_WORKLOADS_SCALING_HH

/**
 * @file
 * Deterministic random number generation for LEO.
 *
 * Everything stochastic in the library (measurement noise, random
 * configuration sampling, per-application synthetic parameters) draws
 * from this generator so experiments are exactly reproducible from a
 * seed, as a simulator substrate must be.
 */

#ifndef LEO_STATS_RNG_HH
#define LEO_STATS_RNG_HH

#include <cstdint>
#include <random>
#include <vector>

namespace leo::stats
{

/**
 * A seeded pseudo-random generator with the draws LEO needs.
 *
 * Wraps a 64-bit Mersenne twister; the wrapper exists so the library
 * has one choke point for randomness and so call sites read in the
 * domain's vocabulary (uniform cores, Gaussian Watts, ...).
 */
class Rng
{
  public:
    /** @param seed Seed defining the whole stream. */
    explicit Rng(std::uint64_t seed = 0x1ef0u) : engine_(seed) {}

    /** @return A double uniform in [lo, hi). */
    double uniform(double lo = 0.0, double hi = 1.0);

    /** @return An integer uniform in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** @return A draw from N(mean, stddev^2). */
    double gaussian(double mean = 0.0, double stddev = 1.0);

    /**
     * Sample k distinct values from {0, ..., n-1} without
     * replacement (partial Fisher-Yates), in random order.
     */
    std::vector<std::size_t> sampleWithoutReplacement(std::size_t n,
                                                      std::size_t k);

    /** Fork an independent generator (for parallel sub-streams). */
    Rng fork();

    /** @return The underlying engine (for std distributions). */
    std::mt19937_64 &engine() { return engine_; }

  private:
    std::mt19937_64 engine_;
};

} // namespace leo::stats

#endif // LEO_STATS_RNG_HH

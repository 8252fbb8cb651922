/**
 * @file
 * Implementation of the seeded RNG wrapper.
 */

#include "stats/rng.hh"

#include <algorithm>
#include <numeric>

#include "linalg/error.hh"

namespace leo::stats
{

double
Rng::uniform(double lo, double hi)
{
    std::uniform_real_distribution<double> d(lo, hi);
    return d(engine_);
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    require(lo <= hi, "uniformInt with empty range");
    std::uniform_int_distribution<std::int64_t> d(lo, hi);
    return d(engine_);
}

double
Rng::gaussian(double mean, double stddev)
{
    std::normal_distribution<double> d(mean, stddev);
    return d(engine_);
}

std::vector<std::size_t>
Rng::sampleWithoutReplacement(std::size_t n, std::size_t k)
{
    require(k <= n, "sampleWithoutReplacement: k > n");
    std::vector<std::size_t> pool(n);
    std::iota(pool.begin(), pool.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
        const std::size_t j = static_cast<std::size_t>(
            uniformInt(static_cast<std::int64_t>(i),
                       static_cast<std::int64_t>(n - 1)));
        std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    return pool;
}

Rng
Rng::fork()
{
    // Derive a new seed from the current stream; forked generators
    // are independent of subsequent draws on the parent.
    const std::uint64_t seed = engine_();
    return Rng(seed);
}

} // namespace leo::stats

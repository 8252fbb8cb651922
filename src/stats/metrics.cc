/**
 * @file
 * Implementation of the estimation quality metrics.
 */

#include "stats/metrics.hh"

#include <algorithm>

#include "linalg/error.hh"

namespace leo::stats
{

double
accuracy(const linalg::Vector &estimate, const linalg::Vector &truth)
{
    require(estimate.size() == truth.size() && !truth.empty(),
            "accuracy: dimension mismatch or empty input");
    const double ybar = truth.mean();
    double num = 0.0;
    double den = 0.0;
    for (std::size_t i = 0; i < truth.size(); ++i) {
        const double e = estimate[i] - truth[i];
        const double d = truth[i] - ybar;
        num += e * e;
        den += d * d;
    }
    if (den == 0.0) {
        // Constant truth: perfect iff the estimate matches exactly.
        return num == 0.0 ? 1.0 : 0.0;
    }
    return std::max(1.0 - num / den, 0.0);
}

} // namespace leo::stats

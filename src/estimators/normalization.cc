/**
 * @file
 * Implementation of scale normalization.
 */

#include "estimators/normalization.hh"

#include "linalg/error.hh"

namespace leo::estimators
{

std::vector<linalg::Vector>
normalizeShapes(std::vector<linalg::Vector> prior)
{
    for (linalg::Vector &y : prior) {
        require(!y.empty(), "normalizeShapes: empty prior vector");
        const double m = y.mean();
        require(m > 0.0, "normalizeShapes: non-positive prior mean");
        y /= m;
    }
    return prior;
}

linalg::Vector
averageShape(const std::vector<linalg::Vector> &shapes)
{
    require(!shapes.empty(), "averageShape: no shapes");
    linalg::Vector mean(shapes.front().size(), 0.0);
    for (const linalg::Vector &s : shapes)
        mean += s;
    mean /= static_cast<double>(shapes.size());
    return mean;
}

double
observedScale(const linalg::Vector &obs_vals)
{
    require(!obs_vals.empty(), "observedScale: no observations");
    const double m = obs_vals.mean();
    require(m > 0.0, "observedScale: non-positive observation mean");
    return m;
}

} // namespace leo::estimators

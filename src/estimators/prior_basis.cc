/**
 * @file
 * Implementation of the shared prior basis.
 */

#include "estimators/prior_basis.hh"

#include "estimators/normalization.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "obs/obs.hh"

namespace leo::estimators
{

PriorBasis::PriorBasis(const std::vector<linalg::Vector> &prior)
{
    obs::Span span(obs::names::kEmPriorBasisSpan, "em");
    require(!prior.empty(), "PriorBasis: no prior applications");
    n_ = prior.front().size();
    for (const linalg::Vector &y : prior)
        require(y.size() == n_, "PriorBasis: ragged prior vectors");
    shapes_ = normalizeShapes(prior);
    const std::size_t m = shapes_.size();

    linalg::LowRankBasis basis;
    basis.reset(n_, m);
    for (const linalg::Vector &x : shapes_)
        basis.appendVector(x);
    basis.rowsInto(rows_);
    const std::size_t r = basis.size();

    coords_.resize(m, r);
    linalg::Vector ci(r);
    for (std::size_t i = 0; i < m; ++i) {
        basis.coordsInto(ci, shapes_[i]);
        for (std::size_t k = 0; k < r; ++k)
            coords_.at(i, k) = ci[k];
    }

    mean_coords_ = linalg::Vector(r, 0.0);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t k = 0; k < r; ++k)
            mean_coords_[k] += coords_.at(i, k);
    mean_coords_ /= static_cast<double>(m);
    linalg::Matrix resid(m, r);
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t k = 0; k < r; ++k)
            resid.at(i, k) = coords_.at(i, k) - mean_coords_[k];
    linalg::Matrix::gramInto(resid_gram_, resid);

    span.arg("apps", static_cast<double>(m));
    span.arg("configs", static_cast<double>(n_));
    span.arg("rank", static_cast<double>(r));
    static obs::Counter built =
        obs::Registry::global().counter(obs::names::kEmPriorBasisBuilt);
    built.add(1);
}

std::shared_ptr<const PriorBasis>
PriorBasis::tryBuild(const std::vector<linalg::Vector> &prior)
{
    if (prior.empty())
        return nullptr;
    try {
        return std::make_shared<const PriorBasis>(prior);
    } catch (const Error &) {
        return nullptr;
    }
}

} // namespace leo::estimators

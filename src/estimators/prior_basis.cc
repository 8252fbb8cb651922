/**
 * @file
 * Implementation of the shared prior basis.
 */

#include "estimators/prior_basis.hh"

#include <utility>

#include "estimators/estimator.hh"
#include "estimators/normalization.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "obs/obs.hh"

namespace leo::estimators
{

PriorBasis::PriorBasis(std::vector<linalg::Vector> prior)
    : shapes_(std::move(prior))
{
    obs::Span span(obs::names::kEmPriorBasisSpan, "em");
    require(!shapes_.empty(), "PriorBasis: no prior applications");
    n_ = shapes_.front().size();
    for (const linalg::Vector &y : shapes_)
        require(y.size() == n_, "PriorBasis: ragged prior vectors");
    shapes_ = normalizeShapes(std::move(shapes_));
    const std::size_t m = shapes_.size();

    // Q_p grows in the basis's own storage and R is its Gram-Schmidt
    // factor: row i takes x_i's coefficients on the rows kept so far,
    // plus its residual norm when x_i adds a direction. Both move
    // into place at full rank; a rank-deficient prior copies R's
    // first r columns out.
    linalg::LowRankBasis basis;
    basis.reset(n_, m);
    linalg::Matrix coef(m, m);
    for (std::size_t i = 0; i < m; ++i) {
        basis.appendVector(shapes_[i]);
        const linalg::Vector &c = basis.coefficients();
        for (std::size_t k = 0; k < basis.size(); ++k)
            coef.at(i, k) = c[k];
    }
    const std::size_t r = basis.size();
    rows_ = basis.releaseRows();
    if (r == m) {
        coords_ = std::move(coef);
    } else {
        coords_.resize(m, r);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t k = 0; k < r; ++k)
                coords_.at(i, k) = coef.at(i, k);
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
PriorBasis::tryBuild(std::vector<linalg::Vector> prior)
{
    if (prior.empty())
        return nullptr;
    try {
        return std::make_shared<const PriorBasis>(std::move(prior));
    } catch (const Error &) {
        return nullptr;
    }
}

std::shared_ptr<const PriorBases>
PriorBases::build(const telemetry::ProfileStore &prior)
{
    auto bases = std::make_shared<PriorBases>();
    bases->perf =
        PriorBasis::tryBuild(priorVectors(prior, Metric::Performance));
    bases->power = PriorBasis::tryBuild(priorVectors(prior, Metric::Power));
    return bases;
}

} // namespace leo::estimators

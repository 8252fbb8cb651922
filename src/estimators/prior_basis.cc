/**
 * @file
 * Implementation of the shared prior basis.
 */

#include "estimators/prior_basis.hh"

#include <bit>

#include "estimators/estimator.hh"
#include "estimators/normalization.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "obs/obs.hh"

namespace leo::estimators
{

namespace
{

/**
 * FNV-1a over 64-bit words: n, then the bits of every entry of Q_p
 * and R in row-major order. Four interleaved lanes keep the
 * multiplies pipelined (a 1024-configuration basis hashes in tens of
 * microseconds); each step is a bijection of its lane, so changing
 * any one word always changes the result.
 */
std::uint64_t
fingerprintOf(std::size_t n, const linalg::Matrix &rows,
              const linalg::Matrix &coords)
{
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    constexpr std::uint64_t kBasis = 0xcbf29ce484222325ULL;
    std::uint64_t lane[4] = {kBasis, kBasis ^ 1, kBasis ^ 2, kBasis ^ 3};
    const auto feed = [&](const double *p, std::size_t count) {
        std::size_t i = 0;
        for (; i + 4 <= count; i += 4)
            for (std::size_t l = 0; l < 4; ++l)
                lane[l] = (lane[l] ^ std::bit_cast<std::uint64_t>(p[i + l])) *
                          kPrime;
        for (; i < count; ++i)
            lane[0] = (lane[0] ^ std::bit_cast<std::uint64_t>(p[i])) * kPrime;
    };
    lane[0] = (lane[0] ^ n) * kPrime;
    lane[1] = (lane[1] ^ rows.rows()) * kPrime;
    lane[2] = (lane[2] ^ coords.rows()) * kPrime;
    feed(rows.data(), rows.rows() * rows.cols());
    feed(coords.data(), coords.rows() * coords.cols());
    std::uint64_t h = kBasis;
    for (const std::uint64_t l : lane)
        h = (h ^ l) * kPrime;
    return h;
}

} // namespace

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
    fingerprint_ = fingerprintOf(n_, rows_, coords_);

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

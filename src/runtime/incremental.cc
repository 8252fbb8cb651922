/**
 * @file
 * Implementation of the incremental per-window refitter.
 */

#include "runtime/incremental.hh"

#include <algorithm>
#include <cmath>
#include <exception>

#include "obs/obs.hh"

namespace leo::runtime
{

namespace
{

/** Registry instruments of the refitter (lazily registered). */
struct RefitObs
{
    obs::Counter applied =
        obs::Registry::global().counter(obs::names::kRefitSamplesApplied);
    obs::Counter evicted =
        obs::Registry::global().counter(obs::names::kRefitSamplesEvicted);
    obs::Counter downdates_failed = obs::Registry::global().counter(
        obs::names::kRefitDowndatesFailed);
    obs::Counter rebuilds =
        obs::Registry::global().counter(obs::names::kRefitRebuildsRun);
};

RefitObs &
refitObs()
{
    static RefitObs o;
    return o;
}

} // namespace

bool
IncrementalRefit::reset(const estimators::LeoFit &fit,
                        std::size_t window, RefitMode mode)
{
    active_ = false;
    entries_.clear();
    if (mode == RefitMode::None)
        return false;
    const std::size_t q = fit.rank();
    const std::size_t n = fit.mu.size();
    if (q == 0 || n == 0 || fit.prior == nullptr ||
        fit.prior->dim() != n || fit.coeff.cols() != q ||
        !(fit.alphaDiag > 0.0) || !(fit.sigma2 > 0.0) ||
        !(fit.scale > 0.0) || !fit.mu.allFinite() ||
        !fit.coeff.allFinite())
        return false;
    // The refitter keeps its own copy of the basis rows, materialized
    // from the fit's factors (the fit itself holds none).
    linalg::Matrix basis;
    try {
        basis = fit.basis();
    } catch (const std::exception &) {
        return false;
    }
    if (basis.rows() != q || !basis.allFinite())
        return false;
    // F = chol(B) with B = C + alpha I. C itself is indefinite in
    // general — Sigma = alpha I + Q' C Q only bounds C's spectrum at
    // -alpha — but B is PSD on theory; the jitter schedule covers the
    // floating-point boundary. A fit whose B still refuses to factor
    // is rejected (factorize throws; the caller's guard catches).
    linalg::Matrix b = fit.coeff;
    b.addToDiagonal(fit.alphaDiag);
    linalg::Cholesky fchol;
    try {
        fchol.factorize(b, 0.0, 1e-6);
    } catch (const std::exception &) {
        return false;
    }
    if (!fchol.factor().allFinite())
        return false;

    mode_ = mode;
    window_ = window;
    n_ = n;
    q_ = q;
    d_ = fit.sigma2;
    scale_ = fit.scale;
    mu_ = fit.mu;
    basisT_ = std::move(basis);
    fmat_ = fchol.factor();
    kchol_.reserve(q_);
    kmat_.resize(q_, q_);
    rebuilds_ = 0;
    rebuildFactor();
    active_ = true;
    return true;
}

void
IncrementalRefit::loadingAt(linalg::Vector &u, std::size_t index) const
{
    // u = F' p with p = column `index` of basisT: u[k] =
    // sum_{j >= k} F(j, k) Q(j, index) (F is lower triangular).
    u.resize(q_);
    for (std::size_t k = 0; k < q_; ++k) {
        double acc = 0.0;
        for (std::size_t j = k; j < q_; ++j)
            acc += fmat_.at(j, k) * basisT_.at(j, index);
        u[k] = acc;
    }
}

void
IncrementalRefit::rebuildFactor()
{
    kmat_.fill(0.0);
    kmat_.addToDiagonal(d_);
    for (const Entry &e : entries_)
        kmat_.outerAddInto(1.0, e.u, e.u);
    kchol_.factorize(kmat_, 0.0, 1e-10);
}

bool
IncrementalRefit::addSample(std::size_t index, double value)
{
    if (!active_)
        return false;
    if (index >= n_ || !std::isfinite(value) || value < 0.0)
        return false;
    RefitObs &ro = refitObs();

    Entry e;
    e.index = index;
    e.r = value / scale_ - mu_[index];

    // A repeat sample of a configuration already in the window
    // replaces its predecessor: a fresher reading of the same
    // configuration, with the identical loading u, so K is untouched
    // and no factor work is needed. It also keeps the window
    // distinct-by-configuration, so repeated measurements never get
    // over-weighted as if they were independent.
    for (std::size_t t = 0; t < entries_.size(); ++t) {
        if (entries_[t].index != index)
            continue;
        Entry fresh = std::move(entries_[t]);
        fresh.r = e.r;
        entries_.erase(entries_.begin() +
                       static_cast<std::ptrdiff_t>(t));
        entries_.push_back(std::move(fresh));
        ro.applied.add(1);
        if (mode_ == RefitMode::Batch)
            rebuildFactor();
        return true;
    }
    loadingAt(e.u, index);

    if (mode_ == RefitMode::Incremental) {
        const bool updated =
            kchol_.updateRank1(e.u) == linalg::UpdateStatus::Ok;
        entries_.push_back(std::move(e));
        ro.applied.add(1);
        evictOverflow();
        if (!updated) {
            // Non-finite rotation state; only a rebuild restores a
            // factor consistent with the window.
            ++rebuilds_;
            ro.rebuilds.add(1);
            rebuildFactor();
        }
        return true;
    }

    // Batch mode: the specification. Same window bookkeeping, factor
    // rebuilt from scratch every sample.
    entries_.push_back(std::move(e));
    ro.applied.add(1);
    while (window_ > 0 && entries_.size() > window_) {
        entries_.erase(entries_.begin());
        ro.evicted.add(1);
    }
    rebuildFactor();
    return true;
}

void
IncrementalRefit::evictOverflow()
{
    RefitObs &ro = refitObs();
    while (window_ > 0 && entries_.size() > window_) {
        const linalg::Vector old = std::move(entries_.front().u);
        entries_.erase(entries_.begin());
        ro.evicted.add(1);
        if (kchol_.downdateRank1(old) != linalg::UpdateStatus::Ok) {
            ro.downdates_failed.add(1);
            ++rebuilds_;
            ro.rebuilds.add(1);
            rebuildFactor();
        }
    }
}

void
IncrementalRefit::save(linalg::ByteWriter &w) const
{
    w.u8(active_ ? 1 : 0);
    if (!active_)
        return;
    w.u8(static_cast<std::uint8_t>(mode_));
    w.u64(window_);
    w.u64(n_);
    w.u64(q_);
    w.f64(d_);
    w.f64(scale_);
    w.vec(mu_);
    w.mat(basisT_);
    w.mat(fmat_);
    w.mat(kchol_.factor());
    w.u64(entries_.size());
    for (const Entry &e : entries_) {
        w.vec(e.u);
        w.f64(e.r);
        w.u64(e.index);
    }
    w.u64(rebuilds_);
}

bool
IncrementalRefit::restore(linalg::ByteReader &r)
{
    deactivate();
    if (r.u8() == 0)
        return r.ok();
    const std::uint8_t mode = r.u8();
    window_ = static_cast<std::size_t>(r.u64());
    n_ = static_cast<std::size_t>(r.u64());
    q_ = static_cast<std::size_t>(r.u64());
    d_ = r.f64();
    scale_ = r.f64();
    mu_ = r.vec();
    basisT_ = r.mat();
    fmat_ = r.mat();
    linalg::Matrix kfac = r.mat();
    const std::size_t count = static_cast<std::size_t>(r.u64());
    entries_.clear();
    for (std::size_t i = 0; i < count && r.ok(); ++i) {
        Entry e;
        e.u = r.vec();
        e.r = r.f64();
        e.index = static_cast<std::size_t>(r.u64());
        entries_.push_back(std::move(e));
    }
    rebuilds_ = static_cast<std::size_t>(r.u64());
    if (!r.ok() || mode > static_cast<std::uint8_t>(
                       RefitMode::Incremental) ||
        q_ == 0 || n_ == 0 || mu_.size() != n_ ||
        basisT_.rows() != q_ || basisT_.cols() != n_ ||
        fmat_.rows() != q_ || fmat_.cols() != q_ ||
        kfac.rows() != q_ || kfac.cols() != q_ || !(d_ > 0.0) ||
        !(scale_ > 0.0)) {
        deactivate();
        return false;
    }
    for (const Entry &e : entries_) {
        if (e.u.size() != q_ || e.index >= n_) {
            deactivate();
            return false;
        }
    }
    mode_ = static_cast<RefitMode>(mode);
    kchol_.reserve(q_);
    kchol_.setFactor(std::move(kfac));
    kmat_.resize(q_, q_);
    active_ = true;
    return true;
}

bool
IncrementalRefit::predictInto(linalg::Vector &out) const
{
    if (!active_)
        return false;

    // t = sum_t r_t u_t; y = K^-1 t.
    t_.resize(q_);
    t_.fill(0.0);
    for (const Entry &e : entries_)
        t_.addScaled(e.r, e.u);
    y_ = t_;
    kchol_.solveInPlace(y_);

    // Conditioned mean: mu + Q' B P' A^-1 r collapses to
    // mu + Q' (F y) under the Woodbury substitution.
    fy_.resize(q_);
    for (std::size_t j = 0; j < q_; ++j) {
        double acc = 0.0;
        for (std::size_t k = 0; k <= j; ++k)
            acc += fmat_.at(j, k) * y_[k];
        fy_[j] = acc;
    }
    out = mu_;
    for (std::size_t k = 0; k < q_; ++k) {
        const double c = fy_[k];
        if (c == 0.0)
            continue;
        for (std::size_t j = 0; j < n_; ++j)
            out[j] += c * basisT_.at(k, j);
    }

    for (std::size_t j = 0; j < n_; ++j)
        out[j] = std::max(out[j] * scale_, 0.0);
    return true;
}

} // namespace leo::runtime

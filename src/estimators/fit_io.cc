/**
 * @file
 * Implementation of LeoFit serialization.
 */

#include "estimators/fit_io.hh"

namespace leo::estimators
{

namespace
{

/** Format version; bump when the field list changes. */
constexpr std::uint32_t kFitVersion = 3;

/**
 * The factors are a fit's only variance source, so their shapes must
 * agree: either none at all (the factor-less fit a failed batched fit
 * leaves behind), or q x q cores under a q x n basis with n-entry
 * prediction and mu.
 */
bool
factorShapesAgree(const LeoFit &fit)
{
    if (fit.basisT.empty())
        return fit.coeff.empty() && fit.varCore.empty();
    const std::size_t q = fit.basisT.rows();
    const std::size_t n = fit.basisT.cols();
    return fit.coeff.rows() == q && fit.coeff.cols() == q &&
           fit.varCore.rows() == q && fit.varCore.cols() == q &&
           fit.prediction.size() == n && fit.mu.size() == n;
}

} // namespace

void
saveFit(linalg::ByteWriter &w, const LeoFit &fit)
{
    w.u32(kFitVersion);
    w.vec(fit.prediction);
    w.vec(fit.mu);
    w.f64(fit.sigma2);
    w.u64(fit.iterations);
    w.u8(fit.converged ? 1 : 0);
    w.u64(fit.logLikelihoodTrace.size());
    for (double v : fit.logLikelihoodTrace)
        w.f64(v);
    w.f64(fit.scale);
    w.u8(fit.warmStarted ? 1 : 0);
    w.mat(fit.basisT);
    w.mat(fit.coeff);
    w.f64(fit.alphaDiag);
    w.mat(fit.varCore);
}

LeoFit
loadFit(linalg::ByteReader &r)
{
    LeoFit fit;
    if (r.u32() != kFitVersion) {
        r.fail();
        return fit;
    }
    fit.prediction = r.vec();
    fit.mu = r.vec();
    fit.sigma2 = r.f64();
    fit.iterations = static_cast<std::size_t>(r.u64());
    fit.converged = r.u8() != 0;
    const std::uint64_t traces = r.u64();
    for (std::uint64_t i = 0; i < traces && r.ok(); ++i)
        fit.logLikelihoodTrace.push_back(r.f64());
    fit.scale = r.f64();
    fit.warmStarted = r.u8() != 0;
    fit.basisT = r.mat();
    fit.coeff = r.mat();
    fit.alphaDiag = r.f64();
    fit.varCore = r.mat();
    if (r.ok() && !factorShapesAgree(fit)) {
        r.fail();
        return LeoFit{};
    }
    return fit;
}

} // namespace leo::estimators

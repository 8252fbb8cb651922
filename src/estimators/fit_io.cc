/**
 * @file
 * Implementation of LeoFit serialization.
 */

#include "estimators/fit_io.hh"

#include <exception>

namespace leo::estimators
{

namespace
{

/** Format version; bump when the field list changes. v4 replaced
 *  the basis rows with their count q, the prior fingerprint and the
 *  observed units; v5 dropped mu and the init flag after the scale
 *  (every fit now starts from the cold init). */
constexpr std::uint32_t kFitVersion = 5;

/** True iff units is strictly increasing and below n. */
bool
unitsValid(const std::vector<std::size_t> &units, std::size_t n)
{
    for (std::size_t a = 0; a < units.size(); ++a)
        if (units[a] >= n || (a > 0 && units[a] <= units[a - 1]))
            return false;
    return true;
}

} // namespace

void
saveFit(linalg::ByteWriter &w, const LeoFit &fit)
{
    w.u32(kFitVersion);
    w.vec(fit.prediction);
    w.f64(fit.sigma2);
    w.u64(fit.iterations);
    w.u8(fit.converged ? 1 : 0);
    w.u64(fit.logLikelihoodTrace.size());
    for (double v : fit.logLikelihoodTrace)
        w.f64(v);
    w.f64(fit.scale);
    w.u64(fit.rank());
    w.u64(fit.priorFingerprint);
    w.indexVec(fit.observedUnits);
    w.mat(fit.coeff);
    w.f64(fit.alphaDiag);
    w.mat(fit.varCore);
}

LeoFit
loadFit(linalg::ByteReader &r,
        const std::shared_ptr<const PriorBasis> &prior)
{
    LeoFit fit;
    if (r.u32() != kFitVersion) {
        r.fail();
        return fit;
    }
    fit.prediction = r.vec();
    fit.sigma2 = r.f64();
    fit.iterations = static_cast<std::size_t>(r.u64());
    const std::uint8_t converged = r.u8();
    fit.converged = converged != 0;
    const std::uint64_t traces = r.u64();
    for (std::uint64_t i = 0; i < traces && r.ok(); ++i)
        fit.logLikelihoodTrace.push_back(r.f64());
    fit.scale = r.f64();
    const std::uint64_t q = r.u64();
    fit.priorFingerprint = r.u64();
    fit.observedUnits = r.indexVec();
    fit.coeff = r.mat();
    fit.alphaDiag = r.f64();
    fit.varCore = r.mat();
    if (!r.ok())
        return LeoFit{};
    // The converged flag is 0 or 1, so an accepted blob re-saves to
    // its own bytes. A fit without factors needs no basis; one with
    // factors shares the basis it was saved with and refactors its
    // kept block, whose directions must add up to the saved rank.
    bool shapes_ok = fit.coeff.empty() && fit.varCore.empty();
    if (q > 0) {
        shapes_ok = prior != nullptr &&
                    fit.priorFingerprint == prior->fingerprint() &&
                    unitsValid(fit.observedUnits, prior->dim());
        if (shapes_ok) {
            fit.prior = prior;
            try {
                fit.kept = observedFactors(*prior, fit.observedUnits);
            } catch (const std::exception &) {
                shapes_ok = false;
            }
            const std::size_t n = prior->dim();
            shapes_ok = shapes_ok &&
                        prior->rank() + fit.kept.units.size() == q &&
                        fit.coeff.rows() == q && fit.coeff.cols() == q &&
                        fit.varCore.rows() == q &&
                        fit.varCore.cols() == q &&
                        fit.prediction.size() == n;
        }
    }
    if (converged > 1 || !shapes_ok) {
        r.fail();
        return LeoFit{};
    }
    return fit;
}

} // namespace leo::estimators

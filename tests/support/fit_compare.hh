/**
 * @file
 * The whole-fit comparison the estimator, low-rank and controller
 * tests share: two LEO fits that must be the same fit, bit for bit.
 */

#ifndef LEO_TESTS_SUPPORT_FIT_COMPARE_HH
#define LEO_TESTS_SUPPORT_FIT_COMPARE_HH

#include <string>

#include "estimators/leo.hh"

namespace leo::support
{

/**
 * Expect two fits equal at 0 ULP in every model field: prediction,
 * sigma2, iterations, converged, the log-likelihood trace, scale, the
 * kept block, coeff, alphaDiag and varCore. The shared prior basis is
 * compared by content (its rows() and coords() bits), never by
 * pointer. Each mismatch is a gtest failure labelled with `what`.
 */
void expectFitsBitwise(const estimators::LeoFit &a,
                       const estimators::LeoFit &b,
                       const std::string &what = {});

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_FIT_COMPARE_HH

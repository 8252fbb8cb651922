/**
 * @file
 * Bit-exact serialization of LeoFit.
 *
 * The snapshot/restore path of the multi-tenant service (and the
 * runtime controller underneath it) persists the warm-start state a
 * session accumulated — for a LEO session that is a pair of LeoFits,
 * including the covariance factors, the fit's only variance source
 * (LeoFit::predictiveVarianceAt). Round trips are exact: a restored
 * fit warm-starts EM from bitwise-identical theta, so a resumed
 * session reproduces the uninterrupted run's schedule bit for bit.
 *
 * A fit's basis Q = [Q_p; Q_o] is not written, and no fit holds it.
 * Q_p is the rows of the PriorBasis the fit shares with every fit on
 * that prior, and the kept block behind Q_o follows from that basis
 * and the fit's observed configurations (observedFactors). The blob
 * names the basis by its fingerprint and lists the fit's
 * observedUnits; loadFit reattaches the basis the caller passes and
 * refactors the kept block in s dimensions, bit for bit. So only fits
 * a PriorBasis produced can be saved, which every production fit is.
 */

#ifndef LEO_ESTIMATORS_FIT_IO_HH
#define LEO_ESTIMATORS_FIT_IO_HH

#include "estimators/leo.hh"
#include "linalg/serialize.hh"

namespace leo::estimators
{

/**
 * Append `fit` to `w` (see linalg/serialize.hh): every model field
 * except the shared prior and the kept block, which are written as
 * the rank q next to the prior fingerprint and the observed units
 * they are rebuilt from.
 */
void saveFit(linalg::ByteWriter &w, const LeoFit &fit);

/**
 * Read a LeoFit written by saveFit(): the fit shares `prior` and
 * refactors its kept block from it in s dimensions, with no n-length
 * work. Never throws. The reader's ok() flips false and the returned
 * fit is value-initialized on a truncated or corrupt buffer, on one
 * in another format version, and on a fit with factors unless all of
 * these hold:
 *  - `prior` is non-null and its fingerprint is the saved one;
 *  - the observed units strictly increase and are below prior->dim();
 *  - the prior rank plus the refactored kept directions is the saved
 *    q, under q x q cores and n-entry prediction and mu.
 * A fit with no factors round-trips without a basis (`prior` may be
 * null). Callers validate r.ok() once at the end of their restore.
 */
LeoFit loadFit(linalg::ByteReader &r,
               const std::shared_ptr<const PriorBasis> &prior);

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_FIT_IO_HH

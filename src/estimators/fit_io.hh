/**
 * @file
 * Bit-exact serialization of LeoFit.
 *
 * The snapshot/restore path of the multi-tenant service (and the
 * runtime controller underneath it) persists the warm-start state a
 * session accumulated — for a LEO session that is a pair of LeoFits,
 * including the covariance factors. Round trips are exact: a restored
 * fit warm-starts EM from bitwise-identical theta, so a resumed
 * session reproduces the uninterrupted run's schedule bit for bit.
 */

#ifndef LEO_ESTIMATORS_FIT_IO_HH
#define LEO_ESTIMATORS_FIT_IO_HH

#include "estimators/leo.hh"
#include "linalg/serialize.hh"

namespace leo::estimators
{

/** Append every field of `fit` to `w` (see linalg/serialize.hh). */
void saveFit(linalg::ByteWriter &w, const LeoFit &fit);

/**
 * Read a LeoFit written by saveFit(). Never throws; on a truncated
 * or corrupt buffer, or one in another format version, the reader's
 * ok() flips false and the returned fit is value-initialized —
 * callers validate r.ok() once at the end of their restore.
 */
LeoFit loadFit(linalg::ByteReader &r);

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_FIT_IO_HH

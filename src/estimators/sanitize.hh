/**
 * @file
 * Input sanitization at the estimator boundary.
 *
 * The online measurement path can hand the estimators corrupted
 * observations — NaN/Inf readings from a failed sensor poll, zero
 * readings from a dropout, duplicated configuration indices from a
 * retried probe (see faults/faults.hh for the fault model). Every
 * estimator sanitizes its observation set through this helper before
 * fitting, so a single bad reading degrades the fit instead of
 * crashing it.
 *
 * Repair rules, in order:
 *  1. Reject samples whose configuration index is out of range.
 *  2. Reject samples whose value is non-finite or <= 0 (performance
 *     and power are strictly positive physical quantities; an exact
 *     zero is a dropout, not a measurement).
 *  3. Merge samples that repeat a configuration index by averaging
 *     their values (the maximum-likelihood combination of
 *     equal-noise readings), keeping first-occurrence order. The
 *     average is computed order-independently — values are summed in
 *     ascending order, and a set of bit-identical readings (trace
 *     replays repeat rows verbatim) merges to exactly that reading —
 *     so any permutation of the same duplicate set merges to
 *     bitwise-identical values. The output keeps first-occurrence
 *     order, so it still depends on sample order; it is the fit
 *     (LeoEstimator::estimateMetric orders the sanitized set by
 *     configuration index) that makes the result a function of the
 *     order-free Observations::contentHash the service's fit cache
 *     keys on.
 *
 * A clean observation set passes through untouched — `modified` is
 * false and the caller keeps using its own buffers — so sanitization
 * is exact (0 ULP) on the fault-free path.
 */

#ifndef LEO_ESTIMATORS_SANITIZE_HH
#define LEO_ESTIMATORS_SANITIZE_HH

#include <cstddef>
#include <vector>

#include "linalg/vector.hh"

namespace leo::estimators
{

/** Result of sanitizing an observation set. */
struct SanitizedObservations
{
    /** Surviving configuration indices (first-occurrence order). */
    std::vector<std::size_t> indices;
    /** Surviving values, aligned with indices. */
    linalg::Vector values;
    /** Samples dropped (non-finite, non-positive or out of range). */
    std::size_t rejected = 0;
    /** Samples merged into an earlier duplicate index. */
    std::size_t merged = 0;
    /** True iff the output differs from the input. When false the
     *  output buffers are left empty: use the originals. */
    bool modified = false;
};

/**
 * Validate and repair one metric's observations.
 *
 * @param idx        Observed configuration indices.
 * @param vals       Observed values, aligned with idx.
 * @param space_size Number of configurations (index upper bound).
 * @return The sanitized set; see SanitizedObservations::modified.
 */
SanitizedObservations sanitizeObservations(
    const std::vector<std::size_t> &idx, const linalg::Vector &vals,
    std::size_t space_size);

/**
 * Quick check for the fast path: true iff sanitizeObservations would
 * return the input unchanged.
 */
bool observationsClean(const std::vector<std::size_t> &idx,
                       const linalg::Vector &vals,
                       std::size_t space_size);

} // namespace leo::estimators

#endif // LEO_ESTIMATORS_SANITIZE_HH

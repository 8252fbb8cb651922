/**
 * @file
 * The reference prior-basis build: the test oracle of the CGS2 build.
 *
 * Modified Gram-Schmidt applied twice, one row at a time, with the
 * same 1e-10 relative drop rule, then every vector's coordinates by a
 * dot product against every kept row: the build that
 * estimators::PriorBasis ran before it took R from the factorization.
 * It costs two sweeps per append plus an M r n coordinate pass, so it
 * lives here as the reference the production build is pinned against
 * (tests/lowrank_test.cc), not in src/.
 */

#ifndef LEO_TESTS_SUPPORT_BASIS_ORACLE_HH
#define LEO_TESTS_SUPPORT_BASIS_ORACLE_HH

#include <vector>

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::support
{

/** Output of one reference build. */
struct OracleBasis
{
    /** Orthonormal rows (r x n), one per kept vector, in input order. */
    linalg::Matrix rows;
    /** Coordinates (M x r): row i holds Q x_i, the dot products of
     *  vector i with every kept row. */
    linalg::Matrix coords;
};

/**
 * Orthonormalize the vectors in order by two modified Gram-Schmidt
 * sweeps per append, dropping a vector whose residual is at most
 * 1e-10 of its own norm, then project every vector onto the kept
 * rows.
 *
 * @param vectors >= 1 vectors of equal length n.
 * @throws leo::FatalError on an empty or ragged input.
 */
OracleBasis referenceBasis(const std::vector<linalg::Vector> &vectors);

/** @return The coordinates Q x (length Q.rows()) of x in the rows Q. */
linalg::Vector coordinatesOf(const linalg::Matrix &q,
                             const linalg::Vector &x);

/** @return The expansion Q' c (length Q.cols()) of coordinates c. */
linalg::Vector expansionOf(const linalg::Matrix &q,
                           const linalg::Vector &c);

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_BASIS_ORACLE_HH

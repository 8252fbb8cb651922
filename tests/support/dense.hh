/**
 * @file
 * Dense reference helpers for the tests.
 *
 * The library keeps only the linear algebra a program runs: the
 * into-buffer kernels, the in-place solves and the factorization.
 * The tests still need the textbook forms as references and as
 * shorthand: the identity, an outer product, a transpose, a Gram
 * matrix, a symmetry check, out-of-place solves and the inverse of a
 * Cholesky factor, and a sample standard deviation. Each is a plain
 * loop over the operands, so a reference stays independent of the
 * kernels it checks; where a kernel promises the bits of a plain
 * loop, the loop here sums in the same order (noted per function).
 */

#ifndef LEO_TESTS_SUPPORT_DENSE_HH
#define LEO_TESTS_SUPPORT_DENSE_HH

#include <cstddef>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::support
{

/** @return The d x d identity matrix. */
linalg::Matrix identity(std::size_t d);

/** @return The outer product x y'. */
linalg::Matrix outer(const linalg::Vector &x, const linalg::Vector &y);

/** @return The transpose a'. */
linalg::Matrix transpose(const linalg::Matrix &a);

/**
 * @return The Gram matrix a' a: entry (i, j) is the dot of columns i
 *         and j, summed from +0.0 in increasing row order, and the
 *         result is exactly symmetric.
 */
linalg::Matrix gram(const linalg::Matrix &a);

/** @return True iff a is square and |a(r, c) - a(c, r)| <= tol. */
bool isSymmetric(const linalg::Matrix &a, double tol = 1e-9);

/** @return The factorization of a, with the library's jitter
 *          schedule up to max_jitter. */
linalg::Cholesky cholesky(const linalg::Matrix &a,
                          double max_jitter = 1e-6);

/** @return y = L^-1 b by forward substitution (a division per row). */
linalg::Vector solveLower(const linalg::Cholesky &chol,
                          const linalg::Vector &b);

/** @return x = A^-1 b: forward, then back substitution. */
linalg::Vector solve(const linalg::Cholesky &chol, const linalg::Vector &b);

/**
 * @return A^-1 = K' K with K = L^-1: K row by row, then the sum of
 *         outer products of K's rows, both skipping zero multipliers,
 *         and the lower triangle mirrored — the per-entry order
 *         Cholesky::inverseInto promises.
 */
linalg::Matrix inverse(const linalg::Cholesky &chol);

/** @return The sample standard deviation of v (denominator n - 1). */
double sampleStddev(const linalg::Vector &v);

} // namespace leo::support

#endif // LEO_TESTS_SUPPORT_DENSE_HH

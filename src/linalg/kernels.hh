/**
 * @file
 * The dense kernels of the EM iteration, built at two vector widths.
 *
 * Matrix::multiplyInto, Matrix::gramInto, Cholesky::factorize,
 * Cholesky::inverseInto and Cholesky::solveLowerInPlace(Matrix &)
 * forward here. Each kernel body is written once (kernels.cc) and
 * instantiated twice: a portable build at the baseline ISA's vector
 * width (two doubles, SSE2 on x86-64) and, on x86-64 only, an AVX2
 * build (four doubles, never FMA). activeIsa() picks one per process
 * by CPUID. Both give every output entry the naive loop's sequence of
 * floating-point operations, so they return the same bits
 * (DESIGN.md section 7.1).
 *
 * Internal to the library: no public header includes this one. Tests
 * include it to run both instantiations on one host.
 */

#ifndef LEO_LINALG_KERNELS_HH
#define LEO_LINALG_KERNELS_HH

#include <cstddef>

#include "linalg/matrix.hh"

namespace leo::linalg::detail
{

/** A kernel instantiation. */
enum class Isa
{
    /** The baseline ISA's vector width; runs on every host. */
    Portable,
    /** AVX2 width; x86-64 hosts whose CPU reports AVX2 only. On
     *  other targets there is no AVX2 build and this runs Portable. */
    Avx2,
};

/** @return True iff the host CPU (and OS) can run Isa::Avx2. */
bool hostHasAvx2();

/**
 * @return The instantiation the public kernels run: Avx2 when the
 * host has it, else Portable. Picked once; the library publishes the
 * pick as the gauge leo.linalg.simd.lanes when it loads.
 */
Isa activeIsa();

/** @return Doubles per vector register in `isa`'s instantiation. */
std::size_t simdLanes(Isa isa);

/** out = a b (re-shaped); out must not alias a or b. */
void multiplyInto(Isa isa, Matrix &out, const Matrix &a, const Matrix &b);

/** out = a' a (re-shaped), exactly symmetric; out must not alias a. */
void gramInto(Isa isa, Matrix &out, const Matrix &a);

/**
 * Factor the lower triangle of a + added_diag I (+ jitter I when
 * jitter > 0) into l = L, lower triangular with a zero upper
 * triangle. @return False, with l undefined, when a pivot is not a
 * positive finite number.
 */
bool choleskyInto(Isa isa, Matrix &l, const Matrix &a, double added_diag,
                  double jitter);

/**
 * inv = (L L')^-1 (re-shaped, exactly symmetric) from the factor l,
 * with k as the n x n scratch for L^-1.
 */
void choleskyInverseInto(Isa isa, Matrix &inv, Matrix &k, const Matrix &l);

/** x <- L^-1 x for the lower-triangular l (x has l.rows() rows). */
void forwardSolveInPlace(Isa isa, const Matrix &l, Matrix &x);

} // namespace leo::linalg::detail

#endif // LEO_LINALG_KERNELS_HH

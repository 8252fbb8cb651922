/**
 * @file
 * The EM's dense kernels as register tiles, written once and built
 * at two vector widths (see kernels.hh).
 *
 * Every kernel is a sweep of tiles: R output rows by NV vectors of
 * accumulators, each held in a register across the tile's whole
 * inner dimension. Each vector lane is one output entry's own
 * accumulator and receives that entry's product terms one at a time
 * in ascending order, so the tile changes which entries advance
 * together, never the operations an entry sees: the same terms, the
 * same order, the same `== 0.0` skips, the same reciprocal multiply
 * or divide at the end. That is why the vector width is free to
 * differ between the two builds.
 */

#include "linalg/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "obs/obs.hh"

// Every helper below is forced inline, so each kernel body compiles
// inside its instantiation function and takes that function's
// target. No vector value crosses a call either, which would tie the
// two builds' calling conventions together (-Wpsabi).
#define LEO_TILE inline __attribute__((always_inline))

#if defined(__x86_64__)
#define LEO_AVX2_BUILD 1
#else
#define LEO_AVX2_BUILD 0
#endif

namespace leo::linalg::detail
{

namespace
{

/** Two doubles: the portable build's vector (SSE2 on x86-64). */
typedef double Vec2 __attribute__((vector_size(16)));
/** Four doubles: the AVX2 build's vector. */
typedef double Vec4 __attribute__((vector_size(32)));

/** Doubles per vector of type V; the scalar tail type has one. */
template <class V>
constexpr std::size_t kLanes = sizeof(V) / sizeof(double);

/** The next narrower tile type: Vec4, then Vec2, then double. */
template <class V>
using Narrower = std::conditional_t<kLanes<V> == 4, Vec2, double>;

/** Panel edge of the blocked factorization and column block of the
 *  product: 64 doubles, 512 bytes of each row. */
constexpr std::size_t kPanel = 64;

template <class V, std::size_t R, std::size_t NV>
LEO_TILE void
zeroTile(V (&acc)[R][NV])
{
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v)
            acc[r][v] = V{};
}

/** Lane c of a one-row tile starts at 1.0 if c == unit, else +0.0. */
template <class V, std::size_t NV>
LEO_TILE void
unitTile(V (&acc)[1][NV], std::size_t unit)
{
    double lanes[NV * kLanes<V>];
    for (std::size_t c = 0; c < NV * kLanes<V>; ++c)
        lanes[c] = c == unit ? 1.0 : 0.0;
    std::memcpy(acc[0], lanes, sizeof lanes);
}

template <class V, std::size_t R, std::size_t NV>
LEO_TILE void
loadTile(V (&acc)[R][NV], const double *p, std::size_t stride)
{
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v)
            std::memcpy(&acc[r][v], p + r * stride + v * kLanes<V>,
                        sizeof(V));
}

template <class V, std::size_t R, std::size_t NV>
LEO_TILE void
storeTile(double *p, std::size_t stride, const V (&acc)[R][NV])
{
#pragma GCC unroll 4
    for (std::size_t r = 0; r < R; ++r)
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v)
            std::memcpy(p + r * stride + v * kLanes<V>, &acc[r][v],
                        sizeof(V));
}

/**
 * The inner loop of every kernel: for k in [k0, k1), ascending,
 *
 *     acc(r, c) += x(r, k) y(k, c)        (-= when Sub)
 *
 * with x(r, k) = x[r xr + k xk] broadcast to every lane and
 * y(k, c) = y[k yk + c] loaded NV vectors at a time. With Skip, a
 * term whose x(r, k) is 0.0 is not applied at all, as the scalar
 * loops' `== 0.0` skips do.
 */
template <bool Sub, bool Skip, class V, std::size_t R, std::size_t NV>
LEO_TILE void
accumulate(V (&acc)[R][NV], const double *x, std::size_t xr,
           std::size_t xk, const double *y, std::size_t yk,
           std::size_t k0, std::size_t k1)
{
    for (std::size_t k = k0; k < k1; ++k) {
        V yv[NV];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NV; ++v)
            std::memcpy(&yv[v], y + k * yk + v * kLanes<V>, sizeof(V));
#pragma GCC unroll 4
        for (std::size_t r = 0; r < R; ++r) {
            const double xv = x[r * xr + k * xk];
            if (Skip && xv == 0.0)
                continue;
#pragma GCC unroll 4
            for (std::size_t v = 0; v < NV; ++v) {
                if constexpr (Sub)
                    acc[r][v] -= xv * yv[v];
                else
                    acc[r][v] += xv * yv[v];
            }
        }
    }
}

/**
 * Cover columns [j, j_hi) with tiles in ascending j: N vectors of V
 * while they fit, then narrower tiles down to single doubles, so no
 * load or store reaches past j_hi. Calls f.block<W, NW>(j) per tile.
 */
template <class V, std::size_t N, class F>
LEO_TILE void
forColumnBlocks(std::size_t j, std::size_t j_hi, const F &f)
{
    constexpr std::size_t w = N * kLanes<V>;
    for (; j + w <= j_hi; j += w)
        f.template block<V, N>(j);
    if constexpr (N > 1)
        forColumnBlocks<V, N / 2>(j, j_hi, f);
    else if constexpr (kLanes<V> > 1)
        forColumnBlocks<Narrower<V>, 1>(j, j_hi, f);
}

/**
 * R rows of a product accumulated from +0.0:
 * out(r, j) = sum_{k in [k0, k1)} x(r, k) y(k, j).
 */
template <std::size_t R, bool Skip>
struct ProductRows
{
    double *out;
    std::size_t os;
    const double *x;
    std::size_t xr, xk;
    const double *y;
    std::size_t yk, k0, k1;

    template <class W, std::size_t NW>
    LEO_TILE void
    block(std::size_t j) const
    {
        W acc[R][NW];
        zeroTile(acc);
        accumulate<false, Skip>(acc, x, xr, xk, y + j, yk, k0, k1);
        storeTile(out + j, os, acc);
    }
};

/**
 * Row c of U = L' (the factor's transpose, n x n row-major) less its
 * terms k in [k0, k1): u(c, j) -= u(k, c) u(k, j).
 */
struct FactorRow
{
    double *row;
    const double *col;
    const double *u;
    std::size_t n, k0, k1;

    template <class W, std::size_t NW>
    LEO_TILE void
    block(std::size_t j) const
    {
        W acc[1][NW];
        loadTile(acc, row + j, 0);
        accumulate<true, false>(acc, col, 0, n, u + j, n, k0, k1);
        storeTile(row + j, 0, acc);
    }
};

/**
 * Columns [j, j + w) of K = L^-1, every row: row i < j is a
 * structural zero; row i >= j is the forward substitution of the
 * unit vectors, 1.0 at (i, i) less l(i, p) K(p, .) for p in [j, i)
 * (skipping l(i, p) == 0.0), then times 1 / l(i, i). Column c > j
 * also takes the terms p in [j, c), which inverse() never runs: they
 * multiply K's structural zeros, so they are exact no-ops on an
 * accumulator still at +0.0 or 1.0.
 */
struct InverseColumns
{
    double *k;
    const double *l;
    std::size_t n;

    template <class W, std::size_t NW>
    LEO_TILE void
    block(std::size_t j) const
    {
        constexpr std::size_t w = NW * kLanes<W>;
        for (std::size_t i = 0; i < j; ++i)
            std::fill(k + i * n + j, k + i * n + j + w, 0.0);
        for (std::size_t i = j; i < n; ++i) {
            W acc[1][NW];
            unitTile(acc, i - j);
            accumulate<true, true>(acc, l + i * n, 0, 1, k + j, n, j, i);
            const double inv_lii = 1.0 / l[i * n + i];
#pragma GCC unroll 4
            for (std::size_t v = 0; v < NW; ++v)
                acc[0][v] = acc[0][v] * inv_lii;
            storeTile(k + i * n + j, 0, acc);
        }
    }
};

/** Row i of the forward substitution x <- L^-1 x (x is n x m). */
struct ForwardRow
{
    double *row;
    const double *lrow;
    const double *x;
    std::size_t m, i;
    double lii;

    template <class W, std::size_t NW>
    LEO_TILE void
    block(std::size_t j) const
    {
        W acc[1][NW];
        loadTile(acc, row + j, 0);
        accumulate<true, false>(acc, lrow, 0, 1, x + j, m, 0, i);
#pragma GCC unroll 4
        for (std::size_t v = 0; v < NW; ++v)
            acc[0][v] = acc[0][v] / lii;
        storeTile(row + j, 0, acc);
    }
};

/** Copy the strict lower triangle of the n x n a onto its upper. */
void
mirrorLower(double *a, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j)
            a[j * n + i] = a[i * n + j];
}

// ---- Kernel bodies ----------------------------------------------

/** out (m x n) = a (m x kk) b (kk x n), 4 x 2-vector tiles. */
template <class V>
LEO_TILE void
multiplyKernel(double *out, const double *a, const double *b,
               std::size_t m, std::size_t kk, std::size_t n)
{
    for (std::size_t j0 = 0; j0 < n; j0 += kPanel) {
        const std::size_t j1 = std::min(n, j0 + kPanel);
        std::size_t i = 0;
        for (; i + 4 <= m; i += 4)
            forColumnBlocks<V, 2>(
                j0, j1,
                ProductRows<4, false>{out + i * n, n, a + i * kk, kk, 1,
                                      b, n, 0, kk});
        for (; i < m; ++i)
            forColumnBlocks<V, 4>(
                j0, j1,
                ProductRows<1, false>{out + i * n, n, a + i * kk, kk, 1,
                                      b, n, 0, kk});
    }
}

/**
 * out (n x n) = a' a for a (m x n): the lower triangle by rows of 4,
 * whose diagonal tiles also write a few upper entries, then the
 * mirror, which overwrites them.
 */
template <class V>
LEO_TILE void
gramKernel(double *out, const double *a, std::size_t m, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        forColumnBlocks<V, 2>(
            0, i + 4,
            ProductRows<4, false>{out + i * n, n, a + i, 1, n, a, n, 0,
                                  m});
    for (; i < n; ++i)
        forColumnBlocks<V, 4>(
            0, i + 1,
            ProductRows<1, false>{out + i * n, n, a + i, 1, n, a, n, 0,
                                  m});
    mirrorLower(out, n);
}

/**
 * Factor in place in the upper triangle: u holds A's lower triangle
 * transposed and leaves holding U = L'. Right-looking over 64-row
 * panels, left-looking within one, so U(c, j) = L(j, c) receives
 * A(j, c) less L(j, k) L(c, k) for k = 0 .. c - 1 in ascending order
 * (earlier panels' terms in their trailing updates, its own panel's
 * before its pivot), then the pivot's sqrt, or the multiply by
 * 1 / pivot: the sequence of the naive left-looking loop. Every
 * factor with n <= 64 is one panel and runs no trailing update.
 */
template <class V>
LEO_TILE bool
choleskyKernel(double *u, std::size_t n)
{
    for (std::size_t p0 = 0; p0 < n; p0 += kPanel) {
        const std::size_t p1 = std::min(n, p0 + kPanel);
        for (std::size_t c = p0; c < p1; ++c) {
            double *row = u + c * n;
            if (c > p0)
                forColumnBlocks<V, 4>(
                    c, n, FactorRow{row, u + c, u, n, p0, c});
            const double d = row[c];
            if (!(d > 0.0) || !std::isfinite(d))
                return false;
            const double ucc = std::sqrt(d);
            row[c] = ucc;
            const double inv_ucc = 1.0 / ucc;
            for (std::size_t j = c + 1; j < n; ++j)
                row[j] = row[j] * inv_ucc;
        }
        for (std::size_t c = p1; c < n; ++c)
            forColumnBlocks<V, 4>(
                c, n, FactorRow{u + c * n, u + c, u, n, p0, p1});
    }
    return true;
}

/**
 * inv = K' K with K = L^-1 in k. Phase 2 sums inv(i, j) over p >= i
 * with inverse()'s kpi == 0 skip; a row block of 4 starts every row
 * at its first row i, since K(p, i + r) for p < i + r is a structural
 * zero that the skip drops.
 */
template <class V>
LEO_TILE void
inverseKernel(double *inv, double *k, const double *l, std::size_t n)
{
    forColumnBlocks<V, 4>(0, n, InverseColumns{k, l, n});
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
        forColumnBlocks<V, 2>(
            0, i + 4,
            ProductRows<4, true>{inv + i * n, n, k + i, 1, n, k, n, i,
                                 n});
    for (; i < n; ++i)
        forColumnBlocks<V, 4>(
            0, i + 1,
            ProductRows<1, true>{inv + i * n, n, k + i, 1, n, k, n, i,
                                 n});
    mirrorLower(inv, n);
}

/** x (n x m) <- L^-1 x: row i less l(i, k) x(k, .) for k < i in
 *  ascending order, then divided by l(i, i). */
template <class V>
LEO_TILE void
forwardKernel(const double *l, double *x, std::size_t n, std::size_t m)
{
    for (std::size_t i = 0; i < n; ++i)
        forColumnBlocks<V, 4>(
            0, m, ForwardRow{x + i * m, l + i * n, x, m, i, l[i * n + i]});
}

// ---- The two instantiations ---------------------------------------

void
multiplyPortable(double *out, const double *a, const double *b,
                 std::size_t m, std::size_t kk, std::size_t n)
{
    multiplyKernel<Vec2>(out, a, b, m, kk, n);
}

void
gramPortable(double *out, const double *a, std::size_t m, std::size_t n)
{
    gramKernel<Vec2>(out, a, m, n);
}

bool
choleskyPortable(double *u, std::size_t n)
{
    return choleskyKernel<Vec2>(u, n);
}

void
inversePortable(double *inv, double *k, const double *l, std::size_t n)
{
    inverseKernel<Vec2>(inv, k, l, n);
}

void
forwardPortable(const double *l, double *x, std::size_t n, std::size_t m)
{
    forwardKernel<Vec2>(l, x, n, m);
}

#if LEO_AVX2_BUILD
// AVX2 only, never FMA: under an fma target GCC contracts a * b + c
// into one rounding, which would change the bits.
#define LEO_AVX2 __attribute__((target("avx2")))

LEO_AVX2 void
multiplyAvx2(double *out, const double *a, const double *b,
             std::size_t m, std::size_t kk, std::size_t n)
{
    multiplyKernel<Vec4>(out, a, b, m, kk, n);
}

LEO_AVX2 void
gramAvx2(double *out, const double *a, std::size_t m, std::size_t n)
{
    gramKernel<Vec4>(out, a, m, n);
}

LEO_AVX2 bool
choleskyAvx2(double *u, std::size_t n)
{
    return choleskyKernel<Vec4>(u, n);
}

LEO_AVX2 void
inverseAvx2(double *inv, double *k, const double *l, std::size_t n)
{
    inverseKernel<Vec4>(inv, k, l, n);
}

LEO_AVX2 void
forwardAvx2(const double *l, double *x, std::size_t n, std::size_t m)
{
    forwardKernel<Vec4>(l, x, n, m);
}
#endif

bool
factorUpper(Isa isa, double *u, std::size_t n)
{
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return choleskyAvx2(u, n);
#endif
    (void)isa;
    return choleskyPortable(u, n);
}

} // namespace

bool
hostHasAvx2()
{
#if LEO_AVX2_BUILD
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

Isa
activeIsa()
{
    static const Isa isa = hostHasAvx2() ? Isa::Avx2 : Isa::Portable;
    return isa;
}

std::size_t
simdLanes(Isa isa)
{
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return kLanes<Vec4>;
#endif
    (void)isa;
    return kLanes<Vec2>;
}

namespace
{

/** Publishes the pick as the library loads, so a metrics snapshot
 *  names the path the fits run on before the first fit. */
[[maybe_unused]] const bool kLanesPublished = [] {
    obs::Registry::global()
        .gauge(obs::names::kLinalgSimdLanes)
        .set(static_cast<double>(simdLanes(activeIsa())));
    return true;
}();

} // namespace

void
multiplyInto(Isa isa, Matrix &out, const Matrix &a, const Matrix &b)
{
    const std::size_t m = a.rows();
    const std::size_t kk = a.cols();
    const std::size_t n = b.cols();
    out.resize(m, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return multiplyAvx2(out.data(), a.data(), b.data(), m, kk, n);
#endif
    (void)isa;
    multiplyPortable(out.data(), a.data(), b.data(), m, kk, n);
}

void
gramInto(Isa isa, Matrix &out, const Matrix &a)
{
    const std::size_t m = a.rows();
    const std::size_t n = a.cols();
    out.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return gramAvx2(out.data(), a.data(), m, n);
#endif
    (void)isa;
    gramPortable(out.data(), a.data(), m, n);
}

bool
choleskyInto(Isa isa, Matrix &l, const Matrix &a, double added_diag,
             double jitter)
{
    const std::size_t n = a.rows();
    l.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    // U = L' grows in the upper triangle: seed it with A's lower
    // triangle, transposed, and the diagonal additions in the order
    // the naive path applies them.
    for (std::size_t c = 0; c < n; ++c) {
        double d = a.at(c, c);
        if (added_diag != 0.0)
            d += added_diag;
        if (jitter > 0.0)
            d += jitter;
        l.at(c, c) = d;
        for (std::size_t i = c + 1; i < n; ++i)
            l.at(c, i) = a.at(i, c);
    }
    if (!factorUpper(isa, l.data(), n))
        return false;
    // Hand back L: the lower triangle from U, a zero upper one.
    for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t i = c + 1; i < n; ++i) {
            l.at(i, c) = l.at(c, i);
            l.at(c, i) = 0.0;
        }
    }
    return true;
}

void
choleskyInverseInto(Isa isa, Matrix &inv, Matrix &k, const Matrix &l)
{
    const std::size_t n = l.rows();
    k.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
    inv.resize(n, n); // leo-lint: allow(hot-alloc-transitive) capacity guard; no-op when presized
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return inverseAvx2(inv.data(), k.data(), l.data(), n);
#endif
    (void)isa;
    inversePortable(inv.data(), k.data(), l.data(), n);
}

void
forwardSolveInPlace(Isa isa, const Matrix &l, Matrix &x)
{
    const std::size_t n = l.rows();
    const std::size_t m = x.cols();
#if LEO_AVX2_BUILD
    if (isa == Isa::Avx2)
        return forwardAvx2(l.data(), x.data(), n, m);
#endif
    (void)isa;
    forwardPortable(l.data(), x.data(), n, m);
}

} // namespace leo::linalg::detail

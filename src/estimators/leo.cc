/**
 * @file
 * Implementation of the LEO hierarchical Bayesian estimator.
 *
 * Two implementations of the EM loop live here:
 *
 *  - The *reference path* (LeoOptions::referencePath) is the
 *    straightforward transcription of Equations (3)-(4): allocating
 *    temporaries every iteration, naive Cholesky/inverse kernels. It
 *    is the executable specification of the fit.
 *  - The default *workspace path* acquires every loop buffer up
 *    front from a linalg::Workspace, factors and inverts in place
 *    with the blocked kernels, and exploits symmetry (lower-triangle
 *    inverse + symv). It produces bitwise-identical output — every
 *    kernel it substitutes preserves the reference's per-entry
 *    floating-point accumulation order — while performing zero heap
 *    allocations inside the iteration loop and roughly halving the
 *    per-iteration flops.
 *
 * The estimator tests assert exact equality between the two paths,
 * at several thread counts, warm and cold.
 */

#include "estimators/leo.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "estimators/normalization.hh"
#include "estimators/offline.hh"
#include "estimators/sanitize.hh"
#include "linalg/cholesky.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "obs/obs.hh"
#include "parallel/parallel_for.hh"
#include "stats/mvn.hh"

namespace leo::estimators
{

namespace
{

/**
 * Leaf-chunk grain for the per-application reductions: at most 8
 * leaves regardless of worker count, so the combine tree (and with
 * it every rounding decision) depends only on the number of prior
 * applications.
 */
std::size_t
emGrain(std::size_t m)
{
    return (m + 7) / 8;
}

/** Registered heap-allocation counter (test hook; see leo.hh). */
std::size_t (*alloc_counter)() = nullptr;

/** Registry instruments of the EM estimator (lazily registered). */
struct EmObs
{
    obs::Counter fits =
        obs::Registry::global().counter(obs::names::kEmFitsCompleted);
    obs::Counter warm =
        obs::Registry::global().counter(obs::names::kEmFitsWarm);
    obs::Counter iters =
        obs::Registry::global().counter(obs::names::kEmIterationsRun);
    obs::Counter ridge =
        obs::Registry::global().counter(obs::names::kEmRidgeRetried);
    obs::Histogram iter_ms = obs::Registry::global().histogram(
        obs::names::kEmIterMs, obs::defaultTimeBucketsMs());
    obs::Gauge ws_bytes =
        obs::Registry::global().gauge(obs::names::kEmWorkspaceBytes);
    obs::Counter lowrank =
        obs::Registry::global().counter(obs::names::kEmLowRankFits);
    obs::Gauge basis_cols =
        obs::Registry::global().gauge(obs::names::kEmBasisColumns);
};

EmObs &
emObs()
{
    static EmObs o;
    return o;
}

/**
 * A unit whose Schur pivot — its squared residual against the prior
 * block and the units kept before it — is at most this lies in the
 * span already and is dropped, as LowRankBasis::appendUnit drops it.
 * The pivot is evaluated as 1 - |p|^2 - sum l^2, so it carries a
 * cancellation error of order q eps: a residual norm below 1e-6 is
 * indistinguishable from that noise (appendUnit's 1e-10 threshold
 * measures the residual directly, which s dimensions cannot).
 */
constexpr double kPivotTol = 1e-12;

/**
 * The observed half of one fit's basis, built in s dimensions.
 *
 * W = P_p' holds the prior-block coordinates of the distinct observed
 * unit vectors (row a = Q_p e_{units[a]}). Their residuals against
 * Q_p have Gram matrix G = I - W W', and an in-order Cholesky
 * G = L L' gives each unit's coordinates on the new directions (row
 * of L) without touching n. The rows themselves,
 * Q_o = L^-1 (E_Omega' - W Q_p), are formed once, only because
 * LeoFit::basisT carries them (observedRowsInto).
 */
struct ObservedBlock
{
    /** Distinct observed indices, first-occurrence order. */
    std::vector<std::size_t> units;
    /** slot[j]: position of observation j's index in `units`. */
    std::vector<std::size_t> slot;
    /** kept[c]: the position in `units` that seeded direction c. */
    std::vector<std::size_t> kept;
    /** W (units x r), in the fit's arena. */
    linalg::Matrix *w = nullptr;
    /** L (units x units, lower trapezoidal; column c belongs to
     *  direction kept[c]), in the fit's arena. */
    linalg::Matrix *l = nullptr;
};

/** Deduplicate the observed units and factor their block. */
ObservedBlock
observeUnits(const PriorBasis &prior,
             const std::vector<std::size_t> &obs_idx,
             linalg::Workspace &arena)
{
    ObservedBlock ob;
    // Exact duplicates share one direction. Merging them here is
    // exact; left to the factorization, their Schur pivot would land
    // near q eps rather than at zero, and only the tolerance would
    // drop them.
    ob.slot.resize(obs_idx.size());
    ob.units.reserve(obs_idx.size());
    for (std::size_t j = 0; j < obs_idx.size(); ++j) {
        std::size_t a = 0;
        while (a < ob.units.size() && ob.units[a] != obs_idx[j])
            ++a;
        if (a == ob.units.size())
            ob.units.push_back(obs_idx[j]);
        ob.slot[j] = a;
    }
    const std::size_t t = ob.units.size();
    const std::size_t r = prior.rank();
    const linalg::Matrix &qp = prior.rows();
    linalg::Matrix &w = arena.matrix("lr.w", t, r);
    for (std::size_t a = 0; a < t; ++a)
        for (std::size_t k = 0; k < r; ++k)
            w.at(a, k) = qp.at(k, ob.units[a]);
    linalg::Matrix &wwt = arena.matrix("lr.wwt", t, t);
    linalg::abtInto(wwt, w, w);

    linalg::Matrix &l = arena.matrix("lr.l", t, t);
    l.fill(0.0);
    ob.kept.reserve(t);
    for (std::size_t a = 0; a < t; ++a) {
        const std::size_t kept = ob.kept.size();
        for (std::size_t c = 0; c < kept; ++c) {
            const std::size_t b = ob.kept[c];
            double v = -wwt.at(a, b); // G[a][b]; distinct units
            for (std::size_t c2 = 0; c2 < c; ++c2)
                v -= l.at(a, c2) * l.at(b, c2);
            l.at(a, c) = v / l.at(b, c);
        }
        double pivot = 1.0 - wwt.at(a, a);
        for (std::size_t c = 0; c < kept; ++c)
            pivot -= l.at(a, c) * l.at(a, c);
        if (pivot > kPivotTol) {
            l.at(a, kept) = std::sqrt(pivot);
            ob.kept.push_back(a);
        }
    }
    ob.w = &w;
    ob.l = &l;
    return ob;
}

/**
 * Apply L_k^-1 (L restricted to the kept units' rows) in place to
 * `kept` rows of length `len`, row c at rows + c * len: subtract the
 * earlier rows, then scale by the pivot. The Q_o construction and the
 * warm rotation share this forward substitution.
 */
void
solveKeptRows(double *rows, std::size_t len, const ObservedBlock &ob)
{
    const linalg::Matrix &l = *ob.l;
    for (std::size_t c = 0; c < ob.kept.size(); ++c) {
        const std::size_t a = ob.kept[c];
        double *row = rows + c * len;
        for (std::size_t c2 = 0; c2 < c; ++c2)
            linalg::axpyN(row, rows + c2 * len, -l.at(a, c2), len);
        const double inv = 1.0 / l.at(a, c);
        for (std::size_t j = 0; j < len; ++j)
            row[j] *= inv;
    }
}

/**
 * Write Q_o = L_k^-1 (E_k' - W_k Q_p) into rows [r, r + kept) of
 * qmat: one GEMM for the projections, then one forward substitution.
 */
void
observedRowsInto(linalg::Matrix &qmat, const PriorBasis &prior,
                 const ObservedBlock &ob, linalg::Workspace &arena)
{
    const std::size_t r = prior.rank();
    const std::size_t n = prior.dim();
    const std::size_t kept = ob.kept.size();
    if (kept == 0)
        return;
    linalg::Matrix &wk = arena.matrix("lr.wk", kept, r);
    for (std::size_t c = 0; c < kept; ++c)
        for (std::size_t k = 0; k < r; ++k)
            wk.at(c, k) = ob.w->at(ob.kept[c], k);
    linalg::Matrix &proj = arena.matrix("lr.proj", kept, n);
    linalg::Matrix::multiplyInto(proj, wk, prior.rows());
    double *rows = qmat.data() + r * n;
    for (std::size_t c = 0; c < kept; ++c) {
        double *row = rows + c * n;
        const double *pr = proj.data() + c * n;
        for (std::size_t j = 0; j < n; ++j)
            row[j] = -pr[j];
        row[ob.units[ob.kept[c]]] += 1.0;
    }
    solveKeptRows(rows, n, ob);
}

/**
 * C0 = R C_w R' for a warm fit whose basis leads with this fit's
 * prior block. Both observed blocks are orthogonal to Q_p, so
 * R = Q Q_w' = blockdiag(I_r, R_o) with
 * R_o = Q_o Q_ow' = L_k^-1 (E_k' - W_k Q_p) Q_ow' = L_k^-1 E_k' Q_ow':
 * a gather of the warm observed rows at this fit's kept units and one
 * forward substitution, with no n-length product. The prior block of
 * C_w carries over; only the observed rows and columns rotate.
 */
void
rotateSharedPriorBlock(linalg::Matrix &cmat, const LeoFit &warm,
                       std::size_t rp, const ObservedBlock &ob,
                       linalg::Workspace &arena)
{
    const std::size_t kept = ob.kept.size();
    const std::size_t q = rp + kept;
    const std::size_t qw = warm.basisT.rows();
    const std::size_t sw = qw - rp;
    const linalg::Matrix &cw = warm.coeff;

    linalg::Matrix &ro = arena.matrix("lr.ro", kept, sw);
    for (std::size_t c = 0; c < kept; ++c)
        for (std::size_t c2 = 0; c2 < sw; ++c2)
            ro.at(c, c2) =
                warm.basisT.at(rp + c2, ob.units[ob.kept[c]]);
    solveKeptRows(ro.data(), sw, ob);

    // rc = R C_w (q x qw): prior rows copied, observed rows rotated.
    linalg::Matrix &rc = arena.matrix("lr.rotc", q, qw);
    rc.fill(0.0);
    for (std::size_t i = 0; i < rp; ++i)
        for (std::size_t k = 0; k < qw; ++k)
            rc.at(i, k) = cw.at(i, k);
    for (std::size_t c = 0; c < kept; ++c)
        for (std::size_t c2 = 0; c2 < sw; ++c2)
            linalg::axpyN(rc.data() + (rp + c) * qw,
                          cw.data() + (rp + c2) * qw, ro.at(c, c2), qw);

    // cmat = rc R' (q x q).
    cmat.resize(q, q);
    for (std::size_t i = 0; i < q; ++i) {
        const double *rci = rc.data() + i * qw;
        for (std::size_t k = 0; k < rp; ++k)
            cmat.at(i, k) = rci[k];
        for (std::size_t c = 0; c < kept; ++c)
            cmat.at(i, rp + c) =
                linalg::dotN(rci + rp, ro.data() + c * sw, sw);
    }
}

/**
 * True iff the warm fit's basis leads with exactly this prior block.
 * Compared bit for bit, never by object identity, so a live fit, one
 * restored by loadFit and a replay all take the same warm branch.
 */
bool
sharesPriorBlock(const LeoFit &warm, const PriorBasis &prior)
{
    const std::size_t r = prior.rank();
    const std::size_t n = prior.dim();
    return warm.basisT.rows() >= r && warm.basisT.cols() == n &&
           (r == 0 ||
            std::memcmp(warm.basisT.data(), prior.rows().data(),
                        r * n * sizeof(double)) == 0);
}

/**
 * The low-rank EM path (CovarianceRep::LowRank).
 *
 * Every vector the EM ever produces — shapes, mu, posterior means —
 * lives in the span of the M prior shapes plus the observed
 * coordinate directions, so the covariance is maintained factored as
 * Sigma = alpha I + Q' C Q with Q an orthonormal q x n basis of that
 * span (q = rank <= M + |Omega| << n). With beta = alpha + sigma^2
 * the Woodbury identity gives
 *
 *     (Sigma + sigma^2 I)^-1 = (1/beta) I + Q' E Q,
 *     E = (C + beta I)^-1 - (1/beta) I,
 *
 * and because every difference vector the E-step solves against is in
 * span(Q'), the n-dimensional solves collapse to q-dimensional ones:
 * the per-iteration cost is O(q^3 + m q^2 + s q^2) against the dense
 * path's O(n^3). The M-step closes over the representation — the
 * isotropic pieces (sigma^2-inflation of the posterior covariance and
 * the Psi = psi I prior) update alpha, everything else updates C — so
 * no re-densification ever happens. Full derivation: DESIGN.md
 * section 7.2.
 *
 * Q = [Q_p; Q_o]: the prior block comes shared and ready in `prior`,
 * and the observed block is factored in s dimensions
 * (observeUnits), so the EM runs on P = [P_p' | L] and prior
 * coordinates [R | 0] without an n-length sweep before the loop.
 *
 * The result is tolerance-equivalent (not bitwise-equal) to the dense
 * path: the algebra is identical but evaluated in a rotated
 * parameterization, so roundings differ at the 1e-14 level per
 * operation. The equivalence suite (tests/lowrank_test.cc) pins the
 * agreement bounds.
 */
LeoFit
fitLowRank(const LeoOptions &opt, const PriorBasis &prior,
           const std::vector<std::size_t> &obs_idx,
           const linalg::Vector &x_obs, double scale,
           linalg::Workspace *ws, const LeoFit *warm,
           std::size_t (*counter)())
{
    using linalg::Matrix;
    using linalg::Vector;

    const std::size_t n = prior.dim();
    const std::size_t m_prior = prior.apps();
    const std::size_t rp = prior.rank();
    const std::size_t s = obs_idx.size();
    const bool have_obs = s > 0;
    const double mp = static_cast<double>(m_prior);
    const double m_total = mp + (have_obs ? 1.0 : 0.0);

    linalg::Workspace local_ws;
    linalg::Workspace &arena = ws ? *ws : local_ws;

    // ---- Basis ----------------------------------------------------
    // The prior block is shared; only the observed coordinate
    // directions are new. Units already in the span (repeated
    // indices, a prior that spans e_j) add no direction, shrinking q.
    const ObservedBlock ob = observeUnits(prior, obs_idx, arena);
    const Matrix &pp = *ob.w;
    const Matrix &lfac = *ob.l;
    const std::size_t kept = ob.kept.size();
    const std::size_t q = rp + kept;
    require(q >= 1, "LeoEstimator: empty low-rank basis");

    // Q = [Q_p; Q_o] (q x n), kept for the warm re-expression, the
    // expansions after the loop and LeoFit::basisT.
    Matrix qmat(q, n);
    std::copy(prior.rows().data(), prior.rows().data() + rp * n,
              qmat.data());
    observedRowsInto(qmat, prior, ob, arena);

    // P (s x q): row j holds the coordinates of e_{obs_j} in the
    // basis, [P_p' | L] at its unit.
    Matrix &p = arena.matrix("lr.p", s, q);
    for (std::size_t j = 0; j < s; ++j) {
        const std::size_t a = ob.slot[j];
        for (std::size_t k = 0; k < rp; ++k)
            p.at(j, k) = pp.at(a, k);
        for (std::size_t c = 0; c < kept; ++c)
            p.at(j, rp + c) = lfac.at(a, c);
    }

    // Coordinates of the prior shapes, [R | 0]: the shapes lie in
    // span(Q_p).
    Matrix &coords = arena.matrix("lr.coords", m_prior, q);
    for (std::size_t i = 0; i < m_prior; ++i) {
        for (std::size_t k = 0; k < rp; ++k)
            coords.at(i, k) = prior.coords().at(i, k);
        for (std::size_t k = rp; k < q; ++k)
            coords.at(i, k) = 0.0;
    }

    // ---- Initialization -------------------------------------------
    // A warm fit must itself be low-rank (no dense <-> low-rank warm
    // crossover: the representations converge to slightly different
    // bits and the mixed init would be neither).
    const bool warm_ok =
        warm != nullptr && warm->lowRank && warm->basisT.cols() == n &&
        warm->basisT.rows() >= 1 &&
        warm->coeff.rows() == warm->basisT.rows() &&
        warm->coeff.cols() == warm->basisT.rows() &&
        warm->mu.size() == n && warm->alphaDiag > 0.0 &&
        warm->sigma2 >= opt.minSigma2 && warm->mu.allFinite() &&
        warm->basisT.allFinite() && warm->coeff.allFinite();

    Vector g(q, 0.0);
    Matrix &cmat = arena.matrix("lr.c", q, q);
    cmat.resize(q, q);
    double alpha = 0.0;
    double sigma2 = opt.initSigma2;
    if (warm_ok) {
        // Re-express the warm theta in the fresh basis: g = Q mu_w,
        // C0 = R C_w R' with R = Q Q_w'. Old directions missing from
        // the new span project away; since EM re-estimates from the
        // init, the loss only perturbs the starting point.
        linalg::gemvInto(g, qmat, warm->mu);
        if (sharesPriorBlock(*warm, prior)) {
            rotateSharedPriorBlock(cmat, *warm, rp, ob, arena);
        } else {
            const std::size_t qw = warm->basisT.rows();
            Matrix &rmat = arena.matrix("lr.rot", q, qw);
            Matrix &rc = arena.matrix("lr.rotc", q, qw);
            linalg::abtInto(rmat, qmat, warm->basisT);
            Matrix::multiplyInto(rc, rmat, warm->coeff);
            linalg::abtInto(cmat, rc, rmat);
        }
        alpha = warm->alphaDiag;
        sigma2 = warm->sigma2;
    } else {
        // Cold init, exactly the dense init in coordinates: the mean
        // of the shape coordinates is the coordinates of the mean
        // shape, the residual Gram matrix is the projected dense one,
        // and the isotropic Psi lands in alpha. The prior-only parts
        // live in the PriorBasis; the observed block starts at zero.
        cmat.fill(0.0);
        const Matrix *gram0 = &prior.residualGram();
        if (opt.init == EmInit::Offline) {
            for (std::size_t k = 0; k < rp; ++k)
                g[k] = prior.meanCoords()[k];
        } else {
            Matrix &gram_r = arena.matrix("lr.gram0", rp, rp);
            Matrix::gramInto(gram_r, prior.coords());
            gram0 = &gram_r;
        }
        for (std::size_t k = 0; k < rp; ++k)
            for (std::size_t k2 = 0; k2 < rp; ++k2)
                cmat.at(k, k2) = gram0->at(k, k2);
        cmat.outerAddInto(opt.hyperPi, g, g);
        cmat /= m_total + 1.0;
        alpha = opt.hyperPsiScale / (m_total + 1.0);
    }

    // ---- EM iterations --------------------------------------------
    LeoFit fit;
    fit.scale = scale;
    fit.warmStarted = warm_ok;
    fit.logLikelihoodTrace.reserve(opt.maxIterations);

    EmObs &eo = emObs();

    // Loop buffers: everything is q- or s-dimensional, so the whole
    // working set is a few hundred kilobytes even at n = 16384.
    Matrix &invq = arena.matrix("lr.invq", q, q);
    Matrix &zc = arena.matrix("lr.zc", m_prior, q);
    Matrix &residm = arena.matrix("lr.residm", m_prior, q);
    Matrix &gramq = arena.matrix("lr.gram", q, q);
    Matrix &cnew = arena.matrix("lr.cnew", q, q);
    Matrix &pc = arena.matrix("lr.pc", s, q);
    Matrix &amat = arena.matrix("lr.amat", s, s);
    Matrix &bmat = arena.matrix("lr.bmat", s, q);
    Matrix &xmat = arena.matrix("lr.xmat", s, q);
    Matrix &ct = arena.matrix("lr.ct", q, q);
    Matrix &pct = arena.matrix("lr.pct", s, q);

    Vector gnew(q, 0.0);
    Vector tc(q, 0.0);
    Vector u(q, 0.0);
    Vector cu(q, 0.0);
    Vector dq(q, 0.0);
    Vector wq(q, 0.0);
    Vector dtc(q, 0.0);
    Vector ll_quad(m_prior, 0.0);
    Vector r(s, 0.0);
    Vector w(s, 0.0);
    Vector ptc(s, 0.0);
    Vector pg(s, 0.0);
    Vector prev_pred = g;

    linalg::Cholesky chol;
    chol.reserve(q);
    linalg::Cholesky::reserveInverseScratch(arena, q);
    linalg::Cholesky chol_obs;
    if (have_obs)
        chol_obs.reserve(s);

    const double total_obs = static_cast<double>(m_prior * n + s);
    const double log2pi = std::log(2.0 * std::numbers::pi);

    obs::Registry::global().prepareThread();
    eo.ws_bytes.set(static_cast<double>(arena.bytes()));

    // Same allocation contract as the dense workspace path: nothing
    // inside the loop touches the heap.
    // leo-lint: hot-begin
    const std::size_t alloc0 = counter ? counter() : 0;
    for (std::size_t iter = 0; iter < opt.maxIterations; ++iter) {
        obs::Span iter_span(obs::names::kEmIterSpan, "em");
        obs::ScopedMs iter_timer(eo.iter_ms);
        fit.iterations = iter + 1;

        const double beta = alpha + sigma2;

        // Factor (C + beta I): the q x q core of every Woodbury
        // identity this iteration needs.
        chol.factorize(cmat, beta, 1e-6);
        chol.inverseInto(invq, arena, /*mirror=*/false);
        double tr_invq = 0.0;
        for (std::size_t k = 0; k < q; ++k)
            tr_invq += invq.at(k, k);
        // tr((Sigma + sigma^2 I)^-1) = n/beta + tr(E).
        const double tr_ainv =
            static_cast<double>(n) / beta +
            (tr_invq - static_cast<double>(q) / beta);

        // E-step, fully observed applications, in coordinates:
        // (Sigma + sigma^2 I)^-1 (x_i - mu) = Q' (C + beta I)^-1 dq
        // because x_i - mu is in span(Q').
        double wq2_sum = 0.0;
        for (std::size_t i = 0; i < m_prior; ++i) {
            for (std::size_t k = 0; k < q; ++k)
                dq[k] = coords.at(i, k) - g[k];
            wq = dq;
            chol.solveInPlace(wq);
            ll_quad[i] = linalg::dot(dq, wq);
            wq2_sum += wq.squaredNorm();
            for (std::size_t k = 0; k < q; ++k)
                zc.at(i, k) = coords.at(i, k) - sigma2 * wq[k];
        }

        // E-step, target application: condition on the observations
        // entirely in the small dimensions. A = Sigma_Omega +
        // sigma^2 I = beta I_s + P C P'; the posterior mean is
        // tc = g + (alpha I + C) P' A^-1 r, and the posterior core is
        // Ct = C - B' A^-1 B with B = alpha P + P C.
        if (have_obs) {
            Matrix::multiplyInto(pc, p, cmat);
            linalg::abtInto(amat, pc, p);
            amat.addToDiagonal(beta);
            // Duplicate observation indices couple through the
            // alpha I part of Sigma off the diagonal too:
            // Sigma_Omega[j][j2] includes alpha whenever the two
            // rows observe the same configuration.
            for (std::size_t j = 0; j < s; ++j)
                for (std::size_t j2 = j + 1; j2 < s; ++j2)
                    if (obs_idx[j] == obs_idx[j2]) {
                        amat.at(j, j2) += alpha;
                        amat.at(j2, j) += alpha;
                    }
            chol_obs.factorize(amat, 0.0, 1e-8);
            linalg::gemvInto(pg, p, g);
            for (std::size_t j = 0; j < s; ++j)
                r[j] = x_obs[j] - pg[j];
            w = r;
            chol_obs.solveInPlace(w);
            linalg::gemvTransInto(u, p, w);
            linalg::gemvInto(cu, cmat, u);
            for (std::size_t k = 0; k < q; ++k)
                tc[k] = g[k] + alpha * u[k] + cu[k];
            for (std::size_t j = 0; j < s; ++j)
                for (std::size_t k = 0; k < q; ++k)
                    bmat.at(j, k) =
                        alpha * p.at(j, k) + pc.at(j, k);
            xmat = bmat;
            chol_obs.solveInPlace(xmat);
            linalg::atbInto(ct, bmat, xmat);
            for (std::size_t k = 0; k < q; ++k)
                for (std::size_t k2 = 0; k2 < q; ++k2)
                    ct.at(k, k2) = cmat.at(k, k2) - ct.at(k, k2);
        }

        // Marginal log-likelihood under the current theta;
        // logdet(Sigma + sigma^2 I) = (n - q) log beta +
        // logdet(C + beta I).
        {
            const double logdet_full =
                static_cast<double>(n - q) * std::log(beta) +
                chol.logDet();
            double ll =
                -0.5 * mp *
                (static_cast<double>(n) * log2pi + logdet_full);
            for (std::size_t i = 0; i < m_prior; ++i)
                ll -= 0.5 * ll_quad[i];
            if (have_obs)
                ll -= 0.5 * (static_cast<double>(s) * log2pi +
                             chol_obs.logDet() + linalg::dot(r, w));
            fit.logLikelihoodTrace.push_back(ll);
            iter_span.arg("iter", static_cast<double>(iter + 1));
            if (iter > 0) {
                const auto &t = fit.logLikelihoodTrace;
                iter_span.arg("ll_delta",
                              t[t.size() - 1] - t[t.size() - 2]);
            }
        }

        // M-step: mu (Equation 4, mu_0 = 0), in coordinates.
        gnew.fill(0.0);
        for (std::size_t i = 0; i < m_prior; ++i)
            for (std::size_t k = 0; k < q; ++k)
                gnew[k] += zc.at(i, k);
        if (have_obs)
            gnew += tc;
        gnew /= m_total + opt.hyperPi;

        // M-step: Sigma (Equation 4). The posterior covariance of a
        // fully observed app is C_full = sigma^2 I - sigma^4
        // (Sigma + sigma^2 I)^-1, whose isotropic part
        // sigma^2 (1 - sigma^2 / beta) I feeds alpha and whose span
        // part -sigma^4 E feeds C; the target's posterior covariance
        // splits as alpha I + Q' Ct Q; Psi = psi I is isotropic.
        const double alpha_new =
            (mp * sigma2 * (1.0 - sigma2 / beta) +
             (have_obs ? alpha : 0.0) + opt.hyperPsiScale) /
            (m_total + 1.0);
        cnew.fill(0.0);
        // -m sigma^4 E = -m sigma^4 (C + beta I)^-1
        //                + (m sigma^4 / beta) I.
        cnew.addScaledSymmetric(-mp * sigma2 * sigma2, invq);
        cnew.addToDiagonal(mp * sigma2 * sigma2 / beta);
        if (have_obs)
            cnew += ct;
        for (std::size_t i = 0; i < m_prior; ++i)
            for (std::size_t k = 0; k < q; ++k)
                residm.at(i, k) = zc.at(i, k) - gnew[k];
        Matrix::gramInto(gramq, residm);
        cnew += gramq;
        if (have_obs) {
            for (std::size_t k = 0; k < q; ++k)
                dtc[k] = tc[k] - gnew[k];
            cnew.outerAddInto(1.0, dtc, dtc);
        }
        cnew.outerAddInto(opt.hyperPi, gnew, gnew);
        cnew /= m_total + 1.0;
        cnew.symmetrize();

        // M-step: sigma^2 (Equation 4). tr(C_full) per app is
        // n sigma^2 - sigma^4 tr_ainv; the residual z_i - x_i is
        // -sigma^2 Q' wq_i so its squared norm is sigma^4 |wq_i|^2.
        double noise_accum =
            mp * (static_cast<double>(n) * sigma2 -
                  sigma2 * sigma2 * tr_ainv) +
            sigma2 * sigma2 * wq2_sum;
        if (have_obs) {
            Matrix::multiplyInto(pct, p, ct);
            linalg::gemvInto(ptc, p, tc);
            for (std::size_t j = 0; j < s; ++j) {
                double tjj = alpha;
                for (std::size_t k = 0; k < q; ++k)
                    tjj += pct.at(j, k) * p.at(j, k);
                const double rr = ptc[j] - x_obs[j];
                noise_accum += tjj + rr * rr;
            }
        }
        const double sigma2_new =
            std::max(noise_accum / total_obs, opt.minSigma2);

        // Convergence on the target prediction, as in the dense
        // paths; coordinate norms equal ambient norms because Q has
        // orthonormal rows.
        const Vector &pred = have_obs ? tc : gnew;
        double dd = 0.0;
        for (std::size_t k = 0; k < q; ++k) {
            const double t = pred[k] - prev_pred[k];
            dd += t * t;
        }
        const double dpred =
            std::sqrt(dd) / (prev_pred.norm() + 1e-12);
        prev_pred = pred;

        std::swap(g, gnew);
        std::swap(cmat, cnew);
        alpha = alpha_new;
        sigma2 = sigma2_new;

        if (dpred < opt.tolerance) {
            fit.converged = true;
            break;
        }
    }
    if (counter)
        fit.loopAllocations = counter() - alloc0;
    // leo-lint: hot-end

    eo.fits.add(1);
    eo.lowrank.add(1);
    if (warm_ok)
        eo.warm.add(1);
    eo.iters.add(fit.iterations);
    eo.basis_cols.set(static_cast<double>(q));

    // ---- Prediction -----------------------------------------------
    // Final E-step for the target under the fitted theta, then expand
    // back to configuration space.
    if (have_obs) {
        const double beta = alpha + sigma2;
        Matrix::multiplyInto(pc, p, cmat);
        linalg::abtInto(amat, pc, p);
        amat.addToDiagonal(beta);
        for (std::size_t j = 0; j < s; ++j)
            for (std::size_t j2 = j + 1; j2 < s; ++j2)
                if (obs_idx[j] == obs_idx[j2]) {
                    amat.at(j, j2) += alpha;
                    amat.at(j2, j) += alpha;
                }
        chol_obs.factorize(amat, 0.0, 1e-8);
        linalg::gemvInto(pg, p, g);
        for (std::size_t j = 0; j < s; ++j)
            r[j] = x_obs[j] - pg[j];
        w = r;
        chol_obs.solveInPlace(w);
        linalg::gemvTransInto(u, p, w);
        linalg::gemvInto(cu, cmat, u);
        for (std::size_t k = 0; k < q; ++k)
            tc[k] = g[k] + alpha * u[k] + cu[k];
        for (std::size_t j = 0; j < s; ++j)
            for (std::size_t k = 0; k < q; ++k)
                bmat.at(j, k) = alpha * p.at(j, k) + pc.at(j, k);
        xmat = bmat;
        chol_obs.solveInPlace(xmat);
        linalg::atbInto(ct, bmat, xmat);
        for (std::size_t k = 0; k < q; ++k)
            for (std::size_t k2 = 0; k2 < q; ++k2)
                ct.at(k, k2) = cmat.at(k, k2) - ct.at(k, k2);
    } else {
        tc = g;
        ct = cmat;
    }

    Vector pred_full(n);
    linalg::gemvTransInto(pred_full, qmat, tc);
    fit.prediction = Vector(n);
    for (std::size_t j = 0; j < n; ++j)
        fit.prediction[j] = std::max(pred_full[j] * scale, 0.0);

    // Posterior diagonal: cov_jj = alpha + q_j' Ct q_j, streamed as
    // rows of Ct Q against rows of Q. Callers that only query a few
    // configurations (opt.expandVariance == false) skip the O(n q)
    // expansion and evaluate entries on demand from varCore via
    // lowRankPredictiveVariance().
    if (opt.expandVariance) {
        Matrix &predt = arena.matrix("lr.predt", q, n);
        Matrix::multiplyInto(predt, ct, qmat);
        Vector cov_diag(n, 0.0);
        for (std::size_t k = 0; k < q; ++k) {
            const double *qk = qmat.data() + k * n;
            const double *tk = predt.data() + k * n;
            for (std::size_t j = 0; j < n; ++j)
                cov_diag[j] += qk[j] * tk[j];
        }
        fit.predictionVariance = Vector(n);
        for (std::size_t j = 0; j < n; ++j)
            fit.predictionVariance[j] =
                (alpha + cov_diag[j] + sigma2) * scale * scale;
    }
    linalg::gemvTransInto(fit.mu, qmat, g);
    // fit.sigma stays empty: at large n the dense matrix is exactly
    // what this path exists to avoid materializing.
    fit.sigma2 = sigma2;
    fit.lowRank = true;
    fit.basisT = std::move(qmat);
    fit.coeff = cmat;
    fit.alphaDiag = alpha;
    fit.varCore = ct;
    return fit;
}

/**
 * Order observations by configuration index, stably, so repeated
 * indices keep their relative order. The fit is order-dependent at
 * the rounding level; ordering makes every permutation of one sample
 * set fit to the same bits. Returns false and leaves the outputs
 * untouched when the input is already ordered.
 */
bool
orderByIndex(const std::vector<std::size_t> &idx,
             const linalg::Vector &vals, std::vector<std::size_t> &idx_out,
             linalg::Vector &vals_out)
{
    if (std::is_sorted(idx.begin(), idx.end()))
        return false;
    std::vector<std::size_t> perm(idx.size());
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    // Ties broken by position: a stable order without the temporary
    // buffer std::stable_sort would allocate.
    std::sort(perm.begin(), perm.end(),
              [&](std::size_t a, std::size_t b) {
                  return idx[a] != idx[b] ? idx[a] < idx[b] : a < b;
              });
    idx_out.resize(idx.size());
    vals_out = linalg::Vector(idx.size());
    for (std::size_t k = 0; k < perm.size(); ++k) {
        idx_out[k] = idx[perm[k]];
        vals_out[k] = vals[perm[k]];
    }
    return true;
}

/** Annotate a whole-fit span with the fit's shape and outcome. */
void
traceFit(obs::Span &span, const PriorBasis &prior, const LeoFit &fit)
{
    span.arg("apps", static_cast<double>(prior.apps()));
    span.arg("configs", static_cast<double>(prior.dim()));
    if (fit.lowRank)
        span.arg("rank", static_cast<double>(fit.basisT.rows()));
    span.arg("iters", static_cast<double>(fit.iterations));
    if (!fit.lowRank)
        span.arg("converged", fit.converged ? 1.0 : 0.0);
}

} // namespace

double
lowRankPredictiveVariance(const LeoFit &fit, std::size_t c)
{
    const std::size_t q = fit.basisT.rows();
    require(fit.lowRank, "lowRankPredictiveVariance on a dense fit");
    require(fit.varCore.rows() == q && fit.varCore.cols() == q,
            "lowRankPredictiveVariance: missing varCore");
    require(c < fit.basisT.cols(),
            "lowRankPredictiveVariance: index out of range");
    // Same increasing-index accumulation as the expanded path: the
    // inner dot is one entry of Ct Q (multiplyInto accumulates each
    // entry in increasing k), the outer dot mirrors the streamed
    // cov_diag loop, so the result equals fit.predictionVariance[c]
    // bit for bit.
    const std::size_t n = fit.basisT.cols();
    const double *b = fit.basisT.data();
    double cov = 0.0;
    for (std::size_t k = 0; k < q; ++k) {
        const double *ctk = fit.varCore.data() + k * q;
        double t = 0.0;
        for (std::size_t k2 = 0; k2 < q; ++k2)
            t += ctk[k2] * b[k2 * n + c];
        cov += b[k * n + c] * t;
    }
    return (fit.alphaDiag + cov + fit.sigma2) * fit.scale *
           fit.scale;
}

double
LeoFit::predictiveVarianceAt(std::size_t c) const
{
    if (!predictionVariance.empty()) {
        require(c < predictionVariance.size(),
                "predictiveVarianceAt: index out of range");
        return predictionVariance[c];
    }
    require(lowRank,
            "predictiveVarianceAt: fit carries no variance (dense "
            "fit without expanded predictionVariance)");
    return lowRankPredictiveVariance(*this, c);
}

void
setAllocationCounter(std::size_t (*counter)())
{
    alloc_counter = counter;
}

LeoEstimator::LeoEstimator(LeoOptions options) : options_(options)
{
    require(options_.hyperPi >= 0.0, "LeoEstimator: pi must be >= 0");
    require(options_.hyperPsiScale >= 0.0,
            "LeoEstimator: psi must be >= 0");
    require(options_.maxIterations >= 1,
            "LeoEstimator: need >= 1 EM iteration");
    require(options_.initSigma2 > 0.0,
            "LeoEstimator: initial sigma^2 must be > 0");
    if (options_.threads > 1)
        pool_ = std::make_unique<parallel::ThreadPool>(
            options_.threads - 1);
}

parallel::ThreadPool &
LeoEstimator::pool() const
{
    if (pool_)
        return *pool_;
    return options_.threads == 1 ? parallel::ThreadPool::serial()
                                 : parallel::ThreadPool::global();
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals) const
{
    return estimateMetric(space, prior, obs_idx, obs_vals, nullptr,
                          nullptr, nullptr);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out) const
{
    return estimateMetric(space, prior, obs_idx, obs_vals, ws, warm,
                          fit_out, options_.representation);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out, CovarianceRep rep) const
{
    if (prior.empty()) {
        // No offline knowledge at all: degenerate to a flat guess at
        // the observed mean (flagged unreliable).
        MetricEstimate est;
        double flat = 0.0;
        for (double v : obs_vals)
            if (std::isfinite(v) && v > 0.0)
                flat = std::max(flat, v);
        est.values = linalg::Vector(space.size(), flat);
        est.reliable = false;
        return est;
    }
    require(prior.front().size() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, nullptr, prior, obs_idx, obs_vals, ws,
                          warm, fit_out, rep);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const PriorBasis &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out, CovarianceRep rep) const
{
    require(prior.dim() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, &prior, {}, obs_idx, obs_vals, ws, warm,
                          fit_out, rep);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const PriorBasis *shared,
                             const std::vector<linalg::Vector> &raw,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out, CovarianceRep rep) const
{
    obs::Span span(obs::names::kEmFitSpan, "em");
    MetricEstimate est;

    // Sanitize the online observations so a faulted reading degrades
    // the fit instead of crashing it (clean sets pass through with
    // zero copies, keeping the fault-free path bitwise identical),
    // then order them by configuration index: the fit cache keys on
    // the order-free Observations::contentHash, so neither the fit
    // nor the fallbacks below may depend on sample order.
    const SanitizedObservations clean =
        sanitizeObservations(obs_idx, obs_vals, space.size());
    est.samplesRejected = clean.rejected;
    const std::vector<std::size_t> &clean_idx =
        clean.modified ? clean.indices : obs_idx;
    const linalg::Vector &clean_vals =
        clean.modified ? clean.values : obs_vals;
    std::vector<std::size_t> ordered_idx;
    linalg::Vector ordered_vals;
    const bool reordered =
        orderByIndex(clean_idx, clean_vals, ordered_idx, ordered_vals);
    const std::vector<std::size_t> &idx =
        reordered ? ordered_idx : clean_idx;
    const linalg::Vector &vals = reordered ? ordered_vals : clean_vals;

    // A prior the basis cannot be built from (a non-positive mean,
    // ragged vectors) leaves no fit to run: it goes straight to the
    // degradation path below.
    std::optional<PriorBasis> own;
    const PriorBasis *basis = shared;
    if (basis == nullptr) {
        try {
            basis = &own.emplace(raw);
        } catch (const Error &) {
            // No basis: degrade below.
        }
    }

    if (basis != nullptr) {
        try {
            LeoFit fit = fitWith(*basis, idx, vals, ws, warm, rep);
            traceFit(span, *basis, fit);
            if (fit.prediction.allFinite()) {
                est.iterations = fit.iterations;
                // Unreliable only when observations existed but none
                // survived sanitization: the fit is then the bare
                // prior shape with no anchoring to the target.
                est.reliable = obs_idx.empty() || !idx.empty();
                if (fit_out) {
                    *fit_out = std::move(fit);
                    est.values = fit_out->prediction;
                } else {
                    est.values = std::move(fit.prediction);
                }
                return est;
            }
        } catch (const Error &) {
            // Fall through to the ridge retry.
        }
    }

    // The EM fit failed (singular covariance even after the Cholesky
    // jitter schedule) or went non-finite. Retry cold with a heavy
    // NIW ridge — a deliberately over-regularized fit that trades
    // statistical efficiency for existence (DESIGN.md "Failure model
    // and degradation policy").
    emObs().ridge.add(1);
    if (basis != nullptr) {
        try {
            LeoOptions ridge = options_;
            ridge.hyperPsiScale =
                std::max(options_.hyperPsiScale * 100.0, 1.0);
            ridge.initSigma2 = std::max(options_.initSigma2, 1e-2);
            ridge.threads = 1;
            ridge.representation = rep;
            const LeoEstimator heavy(ridge);
            LeoFit fit =
                heavy.fitWith(*basis, idx, vals, nullptr, nullptr, rep);
            if (fit.prediction.allFinite()) {
                est.iterations = fit.iterations;
                est.reliable = false;
                if (fit_out) {
                    *fit_out = std::move(fit);
                    est.values = fit_out->prediction;
                } else {
                    est.values = std::move(fit.prediction);
                }
                return est;
            }
        } catch (const Error &) {
            // Fall through to the prior-mean fallback.
        }
    }

    // Last resort: the prior mean shape, anchored to the observed
    // scale when any observation survived. Always finite; never
    // updates fit_out (the caller's warm state stays intact).
    try {
        linalg::Vector shape = basis != nullptr
                                   ? averageShape(basis->shapes())
                                   : OfflineEstimator::meanShape(raw);
        if (!idx.empty()) {
            const double at_obs = shape.gather(idx).mean();
            if (at_obs > 0.0)
                shape *= vals.mean() / at_obs;
        }
        est.values = std::move(shape);
    } catch (const Error &) {
        est.values = linalg::Vector(space.size(),
                                    idx.empty() ? 0.0 : vals.mean());
    }
    est.reliable = false;
    return est;
}

LeoFit
LeoEstimator::fitMetric(const std::vector<linalg::Vector> &prior,
                        const std::vector<std::size_t> &obs_idx,
                        const linalg::Vector &obs_vals) const
{
    return fitMetric(prior, obs_idx, obs_vals, nullptr, nullptr);
}

LeoFit
LeoEstimator::fitMetric(const std::vector<linalg::Vector> &prior,
                        const std::vector<std::size_t> &obs_idx,
                        const linalg::Vector &obs_vals,
                        linalg::Workspace *ws, const LeoFit *warm) const
{
    obs::Span span(obs::names::kEmFitSpan, "em");
    const PriorBasis basis(prior);
    LeoFit fit = fitWith(basis, obs_idx, obs_vals, ws, warm,
                         options_.representation);
    traceFit(span, basis, fit);
    return fit;
}

LeoFit
LeoEstimator::fitMetric(const PriorBasis &prior,
                        const std::vector<std::size_t> &obs_idx,
                        const linalg::Vector &obs_vals,
                        linalg::Workspace *ws, const LeoFit *warm) const
{
    obs::Span span(obs::names::kEmFitSpan, "em");
    LeoFit fit = fitWith(prior, obs_idx, obs_vals, ws, warm,
                         options_.representation);
    traceFit(span, prior, fit);
    return fit;
}

LeoFit
LeoEstimator::fitWith(const PriorBasis &prior,
                      const std::vector<std::size_t> &obs_idx_in,
                      const linalg::Vector &obs_vals_in,
                      linalg::Workspace *ws, const LeoFit *warm,
                      CovarianceRep rep) const
{
    require(obs_idx_in.size() == obs_vals_in.size(),
            "LeoEstimator: observation index/value mismatch");
    const std::size_t n = prior.dim();
    for (std::size_t idx : obs_idx_in)
        require(idx < n, "LeoEstimator: observation index out of range");
    std::vector<std::size_t> ordered_idx;
    linalg::Vector ordered_vals;
    const bool reordered =
        orderByIndex(obs_idx_in, obs_vals_in, ordered_idx, ordered_vals);
    const std::vector<std::size_t> &obs_idx =
        reordered ? ordered_idx : obs_idx_in;
    const linalg::Vector &obs_vals =
        reordered ? ordered_vals : obs_vals_in;

    // ---- Normalization --------------------------------------------
    // Estimation happens on unit-mean shapes (see normalization.hh),
    // normalized once per prior by the PriorBasis.
    const std::vector<linalg::Vector> &shapes = prior.shapes();
    const std::size_t m_prior = shapes.size();
    const std::size_t s = obs_idx.size();
    const bool have_obs = s > 0;
    const double scale = have_obs ? observedScale(obs_vals) : 1.0;
    linalg::Vector x_obs(s);
    for (std::size_t j = 0; j < s; ++j)
        x_obs[j] = obs_vals[j] / scale;

    // Total applications M: priors plus (when observed) the target.
    const double m_total =
        static_cast<double>(m_prior) + (have_obs ? 1.0 : 0.0);

    // ---- Representation dispatch ----------------------------------
    // The reference path is by definition dense (it is the executable
    // specification the other paths are judged against); Auto opts
    // into the factored path only when the rank bound leaves enough
    // headroom for the subspace algebra to win.
    const bool low_rank =
        !options_.referencePath &&
        (rep == CovarianceRep::LowRank ||
         (rep == CovarianceRep::Auto &&
          4 * (m_prior + s + 1) <= n));
    if (low_rank)
        return fitLowRank(options_, prior, obs_idx, x_obs, scale, ws,
                          warm, alloc_counter);

    // ---- Initialization -------------------------------------------
    // Warm start (when a compatible previous fit is supplied) resumes
    // EM from its theta; since warm and cold fits share the loop
    // below, identical theta-zero implies identical output bits.
    const bool warm_ok =
        warm != nullptr && warm->mu.size() == n &&
        warm->sigma.rows() == n && warm->sigma.cols() == n &&
        warm->sigma2 >= options_.minSigma2 && warm->mu.allFinite() &&
        warm->sigma.allFinite();

    linalg::Vector mu(n, 0.0);
    linalg::Matrix sigma_m;
    double sigma2 = options_.initSigma2;
    if (warm_ok) {
        mu = warm->mu;
        sigma_m = warm->sigma;
        sigma2 = warm->sigma2;
    } else {
        // Cold init (Section 5.5: offline init helps).
        if (options_.init == EmInit::Offline) {
            for (const linalg::Vector &x : shapes)
                mu += x;
            mu /= static_cast<double>(m_prior);
        }
        // Residual matrix with rows x_i - mu: sum_i outer(x_i - mu)
        // is its Gram matrix, computed with the blocked kernel.
        linalg::Matrix resid(m_prior, n);
        for (std::size_t i = 0; i < m_prior; ++i)
            for (std::size_t j = 0; j < n; ++j)
                resid.at(i, j) = shapes[i][j] - mu[j];
        sigma_m = linalg::Matrix::gram(resid);
        sigma_m += options_.hyperPi * linalg::Matrix::outer(mu, mu);
        sigma_m.addToDiagonal(options_.hyperPsiScale);
        sigma_m /= m_total + 1.0;
    }

    // ---- EM iterations --------------------------------------------
    parallel::ThreadPool &workers = pool();
    LeoFit fit;
    fit.scale = scale;
    fit.warmStarted = warm_ok;
    fit.logLikelihoodTrace.reserve(options_.maxIterations);
    stats::GaussianPosterior target_post;
    target_post.mean = mu;
    linalg::Vector prev_pred = mu;

    const double total_obs =
        static_cast<double>(m_prior * n + s); // ||L||_F^2

    const auto counter = alloc_counter;

    if (options_.referencePath) {
        const std::size_t alloc0 = counter ? counter() : 0;
        for (std::size_t iter = 0; iter < options_.maxIterations;
             ++iter) {
            fit.iterations = iter + 1;

            // E-step, fully-observed applications (shared algebra):
            //   C_full = sigma^2 I - sigma^4 (Sigma + sigma^2 I)^-1
            //   z_i    = x_i - sigma^2 (Sigma + sigma^2 I)^-1
            //            (x_i - mu)
            linalg::Matrix a = sigma_m;
            a.addToDiagonal(sigma2);
            const linalg::Cholesky chol(a, 1e-6);
            const linalg::Matrix inv = chol.inverse();

            // Fan the per-application E-step across the pool: the
            // shared matrix-vector product inv * (x_i - mu) yields
            // both the posterior mean z_i and the app's
            // log-likelihood quadratic term. Each iteration writes
            // disjoint slots; every reduction below folds in a fixed
            // order, so the fit is bitwise identical at any thread
            // count.
            std::vector<linalg::Vector> z(m_prior);
            linalg::Vector ll_quad(m_prior);
            parallel::parallelFor(
                workers, m_prior, [&](std::size_t i) {
                    const linalg::Vector d = shapes[i] - mu;
                    const linalg::Vector w = inv * d;
                    ll_quad[i] = linalg::dot(d, w);
                    z[i] = shapes[i] - sigma2 * w;
                });

            // Marginal log-likelihood of everything observed under
            // the current theta: fully observed apps are N(mu, Sigma
            // + sigma^2 I); the target contributes its Omega
            // marginal.
            {
                const double log2pi =
                    std::log(2.0 * std::numbers::pi);
                double ll = -0.5 * static_cast<double>(m_prior) *
                            (static_cast<double>(n) * log2pi +
                             chol.logDet());
                for (std::size_t i = 0; i < m_prior; ++i)
                    ll -= 0.5 * ll_quad[i];
                if (have_obs) {
                    linalg::Matrix a_obs = sigma_m.gather(obs_idx);
                    a_obs.addToDiagonal(sigma2);
                    const linalg::Cholesky chol_obs(a_obs, 1e-8);
                    linalg::Vector d(s);
                    for (std::size_t j = 0; j < s; ++j)
                        d[j] = x_obs[j] - mu[obs_idx[j]];
                    const linalg::Vector w = chol_obs.solveLower(d);
                    ll -= 0.5 * (static_cast<double>(s) * log2pi +
                                 chol_obs.logDet() + w.squaredNorm());
                }
                fit.logLikelihoodTrace.push_back(ll);
            }

            // E-step, target application (sparse observations):
            if (have_obs) {
                target_post = stats::conditionOnObservations(
                    mu, sigma_m, obs_idx, x_obs, sigma2, true);
            }

            // M-step: mu (Equation 4, mu_0 = 0).
            linalg::Vector mu_new(n, 0.0);
            for (const linalg::Vector &zi : z)
                mu_new += zi;
            if (have_obs)
                mu_new += target_post.mean;
            mu_new /= m_total + options_.hyperPi;

            // M-step: Sigma (Equation 4; Psi and pi mu mu'
            // normalized inside the bracket per Yu et al. '05 — see
            // DESIGN.md).
            linalg::Matrix s_accum(n, n, 0.0);
            // sum_i C_i for the fully observed apps is m_prior *
            // C_full; C_full = sigma^2 I - sigma^4 inv.
            s_accum += (-sigma2 * sigma2 *
                        static_cast<double>(m_prior)) * inv;
            s_accum.addToDiagonal(sigma2 *
                                  static_cast<double>(m_prior));
            if (have_obs)
                s_accum += target_post.cov;
            // sum_i (z_i - mu)(z_i - mu)': per-chunk Gram partials
            // folded along the fixed combine tree — the chunk layout
            // depends only on m_prior, never on the worker count.
            s_accum += parallel::parallelReduce<linalg::Matrix>(
                workers, m_prior, emGrain(m_prior),
                [&](std::size_t b, std::size_t e) {
                    linalg::Matrix r(e - b, n);
                    for (std::size_t i = b; i < e; ++i)
                        for (std::size_t j = 0; j < n; ++j)
                            r.at(i - b, j) = z[i][j] - mu_new[j];
                    return linalg::Matrix::gram(r);
                },
                [](linalg::Matrix &into, linalg::Matrix &&from) {
                    into += from;
                });
            if (have_obs) {
                const linalg::Vector d = target_post.mean - mu_new;
                s_accum += linalg::Matrix::outer(d, d);
            }
            s_accum += options_.hyperPi *
                       linalg::Matrix::outer(mu_new, mu_new);
            s_accum.addToDiagonal(options_.hyperPsiScale);
            s_accum /= m_total + 1.0;
            s_accum.symmetrize();

            // M-step: sigma^2 (Equation 4).
            double noise_accum = 0.0;
            // Fully observed apps: every configuration contributes.
            for (std::size_t i = 0; i < m_prior; ++i) {
                for (std::size_t j = 0; j < n; ++j) {
                    const double cjj =
                        sigma2 - sigma2 * sigma2 * inv.at(j, j);
                    const double r = z[i][j] - shapes[i][j];
                    noise_accum += cjj + r * r;
                }
            }
            // Target: only the observed configurations contribute.
            if (have_obs) {
                for (std::size_t j = 0; j < s; ++j) {
                    const std::size_t idx = obs_idx[j];
                    const double r =
                        target_post.mean[idx] - x_obs[j];
                    noise_accum +=
                        target_post.cov.at(idx, idx) + r * r;
                }
            }
            double sigma2_new = std::max(noise_accum / total_obs,
                                         options_.minSigma2);

            // Convergence is judged on what the algorithm is for:
            // the target prediction ("3-4 iterations to reach the
            // desired accuracy", Section 5.5). Raw parameters —
            // sigma^2 in particular — keep drifting geometrically
            // long after the prediction has stabilized.
            const linalg::Vector &pred =
                have_obs ? target_post.mean : mu_new;
            const double dpred = (pred - prev_pred).norm() /
                                 (prev_pred.norm() + 1e-12);
            prev_pred = pred;

            mu = std::move(mu_new);
            sigma_m = std::move(s_accum);
            sigma2 = sigma2_new;

            if (dpred < options_.tolerance) {
                fit.converged = true;
                break;
            }
        }
        if (counter)
            fit.loopAllocations = counter() - alloc0;

        // ---- Prediction -------------------------------------------
        // Final E-step for the target under the fitted parameters;
        // the prediction is E[z_M | theta-hat] rescaled to raw units.
        if (have_obs) {
            target_post = stats::conditionOnObservations(
                mu, sigma_m, obs_idx, x_obs, sigma2, true);
        } else {
            target_post.mean = mu;
            target_post.cov = sigma_m;
        }

        fit.prediction = linalg::Vector(n);
        fit.predictionVariance = linalg::Vector(n);
        for (std::size_t j = 0; j < n; ++j) {
            fit.prediction[j] =
                std::max(target_post.mean[j] * scale, 0.0);
            fit.predictionVariance[j] =
                (target_post.cov.at(j, j) + sigma2) * scale * scale;
        }
        fit.mu = std::move(mu);
        fit.sigma = std::move(sigma_m);
        fit.sigma2 = sigma2;
        return fit;
    }

    // ---- Workspace path -------------------------------------------
    // Acquire every buffer the loop touches up front; from here to
    // the end of the loop the only heap traffic is inside
    // ThreadPool::post when fanning to workers (serial fits are
    // strictly allocation-free, which the estimator tests assert).
    // Observability: the reference loop above stays uninstrumented
    // (no iteration spans or counters) — it is the executable
    // specification the 0-ULP obs test compares this instrumented
    // path against.
    EmObs &eo = emObs();
    linalg::Workspace local_ws;
    linalg::Workspace &arena = ws ? *ws : local_ws;

    linalg::Matrix &inv = arena.matrix("em.inv", n, n);
    linalg::Matrix &a_obs = arena.matrix("em.aobs", s, s);
    linalg::Vector &d_obs = arena.vector("em.dobs", s);
    std::vector<linalg::Vector> &z =
        arena.vectorArray("em.z", m_prior, n);
    std::vector<linalg::Vector> &dscr =
        arena.vectorArray("em.d", m_prior, n);
    linalg::Vector &ll_quad = arena.vector("em.llquad", m_prior);
    linalg::Vector &mu_new = arena.vector("em.munew", n);
    linalg::Matrix &s_accum = arena.matrix("em.saccum", n, n);
    linalg::Vector &d_target = arena.vector("em.dtarget", n);

    const std::size_t grain = emGrain(m_prior);
    const std::size_t chunks = parallel::chunkCount(m_prior, grain);
    std::vector<linalg::Matrix *> gram_parts(chunks);
    std::vector<linalg::Matrix *> resid_parts(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t b = c * grain;
        const std::size_t e = std::min(m_prior, b + grain);
        resid_parts[c] =
            &arena.matrix("em.resid." + std::to_string(c), e - b, n);
        gram_parts[c] =
            &arena.matrix("em.gram." + std::to_string(c), n, n);
    }

    linalg::Cholesky chol;
    chol.reserve(n);
    linalg::Cholesky::reserveInverseScratch(arena, n);
    linalg::Cholesky chol_obs;
    stats::ConditioningScratch cond;
    if (have_obs) {
        chol_obs.reserve(s);
        cond.reserve(n, s);
    }
    target_post.cov.resize(n, n);

    // Touch the registry before the allocation audit starts: the
    // calling thread's shard (and every instrument cell block) is
    // created here, so in-loop counter adds and histogram records
    // below are guaranteed heap-free.
    obs::Registry::global().prepareThread();
    eo.ws_bytes.set(static_cast<double>(arena.bytes()));

    // The allocation-audited region: every buffer the loop touches
    // was acquired from the arena above, and the operator-new
    // counting hook in the estimator tests asserts the serial loop
    // performs zero heap allocations. leo-lint's hot-alloc check
    // enforces the same contract statically.
    // leo-lint: hot-begin
    const std::size_t alloc0 = counter ? counter() : 0;
    for (std::size_t iter = 0; iter < options_.maxIterations; ++iter) {
        obs::Span iter_span(obs::names::kEmIterSpan, "em");
        obs::ScopedMs iter_timer(eo.iter_ms);
        fit.iterations = iter + 1;

        // E-step, fully-observed applications: factor
        // (Sigma + sigma^2 I) in place and expand the lower triangle
        // of its inverse (the mirror is never materialized — the
        // consumers below are symmetry-aware).
        chol.factorize(sigma_m, sigma2, 1e-6);
        chol.inverseInto(inv, arena, /*mirror=*/false);

        parallel::parallelFor(workers, m_prior, [&](std::size_t i) {
            linalg::Vector &d = dscr[i];
            linalg::Vector &zi = z[i];
            d = shapes[i];
            d -= mu;
            linalg::symv(inv, d, zi);
            ll_quad[i] = linalg::dot(d, zi);
            for (std::size_t j = 0; j < n; ++j)
                zi[j] = shapes[i][j] - sigma2 * zi[j];
        });

        // Marginal log-likelihood under the current theta.
        {
            const double log2pi = std::log(2.0 * std::numbers::pi);
            double ll = -0.5 * static_cast<double>(m_prior) *
                        (static_cast<double>(n) * log2pi +
                         chol.logDet());
            for (std::size_t i = 0; i < m_prior; ++i)
                ll -= 0.5 * ll_quad[i];
            if (have_obs) {
                sigma_m.gatherInto(a_obs, obs_idx);
                chol_obs.factorize(a_obs, sigma2, 1e-8);
                for (std::size_t j = 0; j < s; ++j)
                    d_obs[j] = x_obs[j] - mu[obs_idx[j]];
                chol_obs.solveLowerInPlace(d_obs);
                ll -= 0.5 * (static_cast<double>(s) * log2pi +
                             chol_obs.logDet() +
                             d_obs.squaredNorm());
            }
            fit.logLikelihoodTrace.push_back(ll);
            iter_span.arg("iter", static_cast<double>(iter + 1));
            if (iter > 0) {
                const auto &t = fit.logLikelihoodTrace;
                iter_span.arg("ll_delta",
                              t[t.size() - 1] - t[t.size() - 2]);
            }
        }

        // E-step, target application (sparse observations):
        if (have_obs) {
            stats::conditionOnObservationsInto(
                target_post, cond, mu, sigma_m, obs_idx, x_obs,
                sigma2, true);
        }

        // M-step: mu (Equation 4, mu_0 = 0).
        mu_new.fill(0.0);
        for (const linalg::Vector &zi : z)
            mu_new += zi;
        if (have_obs)
            mu_new += target_post.mean;
        mu_new /= m_total + options_.hyperPi;

        // M-step: Sigma (Equation 4).
        s_accum.fill(0.0);
        s_accum.addScaledSymmetric(
            -sigma2 * sigma2 * static_cast<double>(m_prior), inv);
        s_accum.addToDiagonal(sigma2 * static_cast<double>(m_prior));
        if (have_obs)
            s_accum += target_post.cov;
        parallel::parallelReduceInto(
            workers, m_prior, grain, gram_parts,
            [&](std::size_t b, std::size_t e, linalg::Matrix &part) {
                linalg::Matrix &r = *resid_parts[b / grain];
                for (std::size_t i = b; i < e; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        r.at(i - b, j) = z[i][j] - mu_new[j];
                linalg::Matrix::gramInto(part, r);
            },
            [](linalg::Matrix &into, const linalg::Matrix &from) {
                into += from;
            });
        s_accum += *gram_parts[0];
        if (have_obs) {
            for (std::size_t j = 0; j < n; ++j)
                d_target[j] = target_post.mean[j] - mu_new[j];
            s_accum.outerAddInto(1.0, d_target, d_target);
        }
        s_accum.outerAddInto(options_.hyperPi, mu_new, mu_new);
        s_accum.addToDiagonal(options_.hyperPsiScale);
        s_accum /= m_total + 1.0;
        s_accum.symmetrize();

        // M-step: sigma^2 (Equation 4).
        double noise_accum = 0.0;
        for (std::size_t i = 0; i < m_prior; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const double cjj =
                    sigma2 - sigma2 * sigma2 * inv.at(j, j);
                const double r = z[i][j] - shapes[i][j];
                noise_accum += cjj + r * r;
            }
        }
        if (have_obs) {
            for (std::size_t j = 0; j < s; ++j) {
                const std::size_t idx = obs_idx[j];
                const double r = target_post.mean[idx] - x_obs[j];
                noise_accum += target_post.cov.at(idx, idx) + r * r;
            }
        }
        double sigma2_new =
            std::max(noise_accum / total_obs, options_.minSigma2);

        // Convergence on the target prediction, as in the reference
        // path (the explicit difference loop reproduces
        // (pred - prev_pred).norm() term for term).
        const linalg::Vector &pred =
            have_obs ? target_post.mean : mu_new;
        double dd = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
            const double t = pred[j] - prev_pred[j];
            dd += t * t;
        }
        const double dpred =
            std::sqrt(dd) / (prev_pred.norm() + 1e-12);
        prev_pred = pred;

        // Swap theta into place; the swapped-out buffers are
        // overwritten wholesale next iteration.
        std::swap(mu, mu_new);
        std::swap(sigma_m, s_accum);
        sigma2 = sigma2_new;

        if (dpred < options_.tolerance) {
            fit.converged = true;
            break;
        }
    }
    if (counter)
        fit.loopAllocations = counter() - alloc0;
    // leo-lint: hot-end

    eo.fits.add(1);
    if (warm_ok)
        eo.warm.add(1);
    eo.iters.add(fit.iterations);

    // ---- Prediction ------------------------------------------------
    // Final E-step for the target under the fitted parameters; the
    // prediction is E[z_M | theta-hat] rescaled to raw units.
    if (have_obs) {
        stats::conditionOnObservationsInto(target_post, cond, mu,
                                           sigma_m, obs_idx, x_obs,
                                           sigma2, true);
    } else {
        target_post.mean = mu;
        target_post.cov = sigma_m;
    }

    fit.prediction = linalg::Vector(n);
    fit.predictionVariance = linalg::Vector(n);
    for (std::size_t j = 0; j < n; ++j) {
        fit.prediction[j] =
            std::max(target_post.mean[j] * scale, 0.0);
        fit.predictionVariance[j] =
            (target_post.cov.at(j, j) + sigma2) * scale * scale;
    }
    fit.mu = std::move(mu);
    fit.sigma = std::move(sigma_m);
    fit.sigma2 = sigma2;
    return fit;
}

} // namespace leo::estimators

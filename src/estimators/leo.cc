/**
 * @file
 * Implementation of the LEO hierarchical Bayesian estimator.
 *
 * One EM loop lives here: the factored loop of DESIGN.md section 7.2,
 * serial, with every buffer acquired up front from a
 * linalg::Workspace so the iteration loop performs no heap
 * allocation. The straightforward dense transcription of Equations
 * (3)-(4) is the test oracle it is checked against
 * (tests/support/leo_oracle.hh).
 */

#include "estimators/leo.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <numeric>
#include <utility>

#include "estimators/normalization.hh"
#include "estimators/offline.hh"
#include "estimators/sanitize.hh"
#include "linalg/cholesky.hh"
#include "linalg/error.hh"
#include "linalg/lowrank.hh"
#include "obs/obs.hh"

namespace leo::estimators
{

namespace
{

/** Registered heap-allocation counter (test hook; see leo.hh). */
std::size_t (*alloc_counter)() = nullptr;

/** Registry instruments of the EM estimator (lazily registered). */
struct EmObs
{
    obs::Counter fits =
        obs::Registry::global().counter(obs::names::kEmFitsCompleted);
    obs::Counter iters =
        obs::Registry::global().counter(obs::names::kEmIterationsRun);
    obs::Counter ridge =
        obs::Registry::global().counter(obs::names::kEmRidgeRetried);
    obs::Histogram iter_ms = obs::Registry::global().histogram(
        obs::names::kEmIterMs, obs::defaultTimeBucketsMs());
    obs::Gauge ws_bytes =
        obs::Registry::global().gauge(obs::names::kEmWorkspaceBytes);
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

/** Floor on sigma^2 (normalized space) that keeps the E-step well
 *  posed. */
constexpr double kMinSigma2 = 1e-8;

/**
 * The observed half of one fit's basis, built in s dimensions.
 *
 * W = P_p' holds the prior-block coordinates of the distinct observed
 * unit vectors (row a = Q_p e_{units[a]}). Their residuals against
 * Q_p have Gram matrix G = I - W W', and an in-order Cholesky
 * G = L L' gives each unit's coordinates on the new directions (row
 * of L) without touching n. The rows Q_o = L_k^-1 (E_k' - W_k Q_p)
 * themselves are never formed: the fit keeps the kept units' rows of
 * W and L (KeptBlock), and every reader of Q works from those.
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

/** The kept units' rows of W and L, copied out of the arena: the
 *  block a fit keeps. */
KeptBlock
keptBlockOf(const PriorBasis &prior, const ObservedBlock &ob)
{
    const std::size_t r = prior.rank();
    const std::size_t kept = ob.kept.size();
    KeptBlock kb;
    kb.units.resize(kept);
    kb.w.resize(kept, r);
    kb.l.resize(kept, kept);
    for (std::size_t c = 0; c < kept; ++c) {
        const std::size_t a = ob.kept[c];
        kb.units[c] = ob.units[a];
        for (std::size_t k = 0; k < r; ++k)
            kb.w.at(c, k) = ob.w->at(a, k);
        for (std::size_t c2 = 0; c2 < kept; ++c2)
            kb.l.at(c, c2) = ob.l->at(a, c2);
    }
    return kb;
}

/** True iff the block's shapes fit a prior block of rank r. */
bool
blockShapesMatch(const KeptBlock &kb, std::size_t r)
{
    const std::size_t kept = kb.units.size();
    return kb.w.rows() == kept && kb.w.cols() == r &&
           kb.l.rows() == kept && kb.l.cols() == kept;
}

/**
 * The column evaluator: entries [0, kept) of column c of
 * Q_o = L_k^-1 (E_k' - W_k Q_p) into out, at O(kept r + kept^2). It
 * repeats the arithmetic of forming the rows whole — the projection
 * accumulated from 0.0 in ascending k, as Matrix::multiplyInto sums
 * it, negated, 1.0 added at the direction's own unit, the earlier
 * directions subtracted in axpy form in ascending order, then a
 * multiply by 1.0 / pivot — so every entry is the one a materialized
 * basis holds, bit for bit (observedBasis is built from it).
 */
void
observedColumnInto(double *out, const PriorBasis &prior,
                   const KeptBlock &kb, std::size_t c)
{
    const std::size_t r = prior.rank();
    const std::size_t kept = kb.units.size();
    const linalg::Matrix &qp = prior.rows();
    for (std::size_t d = 0; d < kept; ++d) {
        const double *wd = kb.w.data() + d * r;
        double proj = 0.0;
        for (std::size_t k = 0; k < r; ++k)
            proj += wd[k] * qp.at(k, c);
        double v = -proj;
        if (kb.units[d] == c)
            v += 1.0;
        const double *ld = kb.l.data() + d * kept;
        for (std::size_t d2 = 0; d2 < d; ++d2)
            v += -ld[d2] * out[d2];
        out[d] = v * (1.0 / ld[d]);
    }
}

/**
 * True iff the fit carries a complete factored basis: a prior basis
 * and a kept block whose ranks add up to the order of its cores.
 */
bool
hasBasis(const LeoFit &fit)
{
    return fit.prior != nullptr &&
           blockShapesMatch(fit.kept, fit.prior->rank()) &&
           fit.rank() == fit.prior->rank() + fit.kept.units.size();
}

/**
 * The EM loop.
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
 * the per-iteration cost is O(q^3 + m q^2 + s q^2) against a dense
 * loop's O(n^3). The M-step closes over the representation — the
 * isotropic pieces (sigma^2-inflation of the posterior covariance and
 * the Psi = psi I prior) update alpha, everything else updates C — so
 * no re-densification ever happens. Full derivation: DESIGN.md
 * section 7.2.
 *
 * Q = [Q_p; Q_o]: the prior block comes shared and ready in `prior`,
 * and the observed block is factored in s dimensions
 * (observeUnits), so the EM runs on P = [P_p' | L] and prior
 * coordinates [R | 0] without an n-length sweep before the loop. Q
 * itself is never formed: the prediction expands through the kept
 * block (expandInto), and the fit keeps the block and shares the
 * prior.
 *
 * When the prior and the observed directions span all of R^n, q = n
 * and Q is a full basis: the same algebra, only no cheaper than a
 * dense loop (DESIGN.md section 7.2 gives the small-n cost).
 *
 * The result is tolerance-equivalent (not bitwise-equal) to the dense
 * test oracle: the algebra is identical but evaluated in a rotated
 * parameterization, so roundings differ at the 1e-14 level per
 * operation. The equivalence suite (tests/lowrank_test.cc) pins the
 * agreement bounds.
 */
LeoFit
fitLowRank(const LeoOptions &opt,
           const std::shared_ptr<const PriorBasis> &shared,
           const std::vector<std::size_t> &obs_idx,
           const linalg::Vector &x_obs, double scale,
           linalg::Workspace *ws, std::size_t (*counter)())
{
    using linalg::Matrix;
    using linalg::Vector;

    const PriorBasis &prior = *shared;
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

    // The kept units' rows of W and L: all the fit needs of Q_o, for
    // the prediction after the loop and LeoFit::kept.
    KeptBlock kb = keptBlockOf(prior, ob);

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
    // Exactly the dense init in coordinates: the mean of the shape
    // coordinates is the coordinates of the mean shape, the residual
    // Gram matrix is the projected dense one, and the isotropic Psi
    // lands in alpha. The prior-only parts live in the PriorBasis; the
    // observed block starts at zero.
    Vector g(q, 0.0);
    Matrix &cmat = arena.matrix("lr.c", q, q);
    cmat.resize(q, q);
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
    double alpha = opt.hyperPsiScale / (m_total + 1.0);
    double sigma2 = opt.initSigma2;

    // ---- EM iterations --------------------------------------------
    LeoFit fit;
    fit.scale = scale;
    fit.logLikelihoodTrace.reserve(opt.maxIterations);

    EmObs &eo = emObs();

    // Loop buffers: everything is q- or s-dimensional, so the whole
    // working set is a few hundred kilobytes even at n = 16384.
    Matrix &invq = arena.matrix("lr.invq", q, q);
    Matrix &wmat = arena.matrix("lr.wq", m_prior, q);
    Matrix &zc = arena.matrix("lr.zc", m_prior, q);
    Matrix &residm = arena.matrix("lr.residm", m_prior, q);
    Matrix &gramq = arena.matrix("lr.gram", q, q);
    Matrix &cnew = arena.matrix("lr.cnew", q, q);
    Matrix &pc = arena.matrix("lr.pc", s, q);
    Matrix &pt = arena.matrix("lr.pt", q, s);
    p.transposeInto(pt);
    Matrix &amat = arena.matrix("lr.amat", s, s);
    Matrix &ymat = arena.matrix("lr.ymat", s, q);
    Matrix &linv = arena.matrix("lr.linv", s, s);
    Matrix &ct = arena.matrix("lr.ct", q, q);

    Vector gnew(q, 0.0);
    Vector tc(q, 0.0);
    Vector u(q, 0.0);
    Vector cu(q, 0.0);
    Vector dtc(q, 0.0);
    Vector ll_quad(m_prior, 0.0);
    Vector r(s, 0.0);
    Vector w(s, 0.0);
    Vector pg(s, 0.0);
    Vector prev_pred = g;

    // The factors come from the arena as well, so a refit through a
    // kept workspace reuses their storage.
    linalg::Cholesky &chol = arena.cholesky("lr.chol");
    chol.reserve(q);
    linalg::Cholesky::reserveInverseScratch(arena, q);
    linalg::Cholesky &chol_obs = arena.cholesky("lr.chol_obs");
    if (have_obs)
        chol_obs.reserve(s);

    // E-step, target application: condition on the observations
    // entirely in the small dimensions. A = Sigma_Omega + sigma^2 I =
    // beta I_s + P C P' (+ alpha at duplicate pairs); the posterior
    // mean is tc = g + (alpha I + C) P' A^-1 r, and the posterior core
    // is Ct = C - B' A^-1 B with B = alpha P + P C. One forward
    // substitution Y = L_A^-1 B gives B' A^-1 B = Y' Y. Leaves the
    // factor of A in chol_obs and w = A^-1 r.
    const auto conditionTarget = [&](double beta) {
        Matrix::multiplyInto(pc, p, cmat);
        Matrix::multiplyInto(amat, pc, pt);
        amat.addToDiagonal(beta);
        // Duplicate observation indices couple through the alpha I
        // part of Sigma off the diagonal too: Sigma_Omega[j][j2]
        // includes alpha whenever the two rows observe the same
        // configuration.
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
                ymat.at(j, k) = alpha * p.at(j, k) + pc.at(j, k);
        chol_obs.solveLowerInPlace(ymat);
        Matrix::gramInto(ct, ymat);
        for (std::size_t k = 0; k < q; ++k)
            for (std::size_t k2 = 0; k2 < q; ++k2)
                ct.at(k, k2) = cmat.at(k, k2) - ct.at(k, k2);
    };

    const double total_obs = static_cast<double>(m_prior * n + s);
    const double log2pi = std::log(2.0 * std::numbers::pi);

    eo.ws_bytes.set(static_cast<double>(arena.bytes()));

    // The allocation-audited region: every buffer the loop touches
    // was acquired above, and the operator-new counting hook in the
    // estimator tests asserts the loop performs zero heap
    // allocations. leo-lint's hot-alloc check enforces the same
    // contract statically.
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
        chol.inverseInto(invq, arena);
        double tr_invq = 0.0;
        for (std::size_t k = 0; k < q; ++k)
            tr_invq += invq.at(k, k);
        // tr((Sigma + sigma^2 I)^-1) = n/beta + tr(E).
        const double tr_ainv =
            static_cast<double>(n) / beta +
            (tr_invq - static_cast<double>(q) / beta);

        // E-step, fully observed applications, in one product:
        // (Sigma + sigma^2 I)^-1 (x_i - mu) = Q' (C + beta I)^-1 dq_i
        // because x_i - mu is in span(Q'), so the rows of
        // W = (R - 1 g')(C + beta I)^-1 carry every app's solve. zc
        // holds the differences dq_i until each row is overwritten
        // with the posterior mean. invq is exactly symmetric, so the
        // product is the one against its transpose, bit for bit.
        for (std::size_t i = 0; i < m_prior; ++i)
            for (std::size_t k = 0; k < q; ++k)
                zc.at(i, k) = coords.at(i, k) - g[k];
        Matrix::multiplyInto(wmat, zc, invq);
        double wq2_sum = 0.0;
        for (std::size_t i = 0; i < m_prior; ++i) {
            const double *wi = wmat.data() + i * q;
            ll_quad[i] = linalg::dotN(zc.data() + i * q, wi, q);
            wq2_sum += linalg::dotN(wi, wi, q);
            for (std::size_t k = 0; k < q; ++k)
                zc.at(i, k) = coords.at(i, k) - sigma2 * wi[k];
        }

        if (have_obs)
            conditionTarget(beta);

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
        cnew.addScaled(-mp * sigma2 * sigma2, invq);
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
            // The target's observed entries, in closed form: every
            // observed unit lies in span(Q), so P P' is the duplicate
            // indicator and A = Sigma_Omega + sigma^2 I exactly. Then
            // diag(alpha I + P Ct P') = sigma^2 - sigma^4 diag(A^-1)
            // and P tc - x = -sigma^2 A^-1 r, and tr(A^-1) is the
            // squared Frobenius norm of L_A^-1.
            linv.fill(0.0);
            linv.addToDiagonal(1.0);
            chol_obs.solveLowerInPlace(linv);
            const double tr_ainv_obs =
                linalg::dotN(linv.data(), linv.data(), s * s);
            noise_accum += static_cast<double>(s) * sigma2 +
                           sigma2 * sigma2 *
                               (w.squaredNorm() - tr_ainv_obs);
        }
        const double sigma2_new =
            std::max(noise_accum / total_obs, kMinSigma2);

        // Convergence is judged on what the algorithm is for: the
        // target prediction ("3-4 iterations to reach the desired
        // accuracy", Section 5.5). Raw parameters — sigma^2 in
        // particular — keep drifting geometrically long after the
        // prediction has stabilized. Coordinate norms equal ambient
        // norms because Q has orthonormal rows.
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
    eo.iters.add(fit.iterations);
    eo.basis_cols.set(static_cast<double>(q));

    // ---- Prediction -----------------------------------------------
    // Final E-step for the target under the fitted theta, then expand
    // back to configuration space.
    if (have_obs) {
        conditionTarget(alpha + sigma2);
    } else {
        tc = g;
        ct = cmat;
    }

    expandInto(fit.prediction, prior, kb, tc);
    for (std::size_t j = 0; j < n; ++j)
        fit.prediction[j] = std::max(fit.prediction[j] * scale, 0.0);

    // The posterior variance stays factored in varCore;
    // LeoFit::predictiveVarianceAt reads one configuration at a time.
    fit.sigma2 = sigma2;
    fit.prior = shared;
    fit.kept = std::move(kb);
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
    span.arg("rank", static_cast<double>(fit.rank()));
    span.arg("iters", static_cast<double>(fit.iterations));
    span.arg("converged", fit.converged ? 1.0 : 0.0);
}

} // namespace

linalg::Matrix
LeoFit::basis() const
{
    require(prior != nullptr, "LeoFit::basis: the fit carries no factors");
    return observedBasis(*prior, kept);
}

linalg::Matrix
LeoFit::covariance() const
{
    const std::size_t q = rank();
    require(q > 0 && hasBasis(*this) && coeff.cols() == q,
            "LeoFit::covariance: missing or mismatched factors");
    const linalg::Matrix qmat = basis();
    const linalg::Matrix cq = linalg::Matrix::multiply(coeff, qmat);
    linalg::Matrix sigma;
    linalg::atbInto(sigma, qmat, cq);
    sigma.addToDiagonal(alphaDiag);
    sigma.symmetrize();
    return sigma;
}

double
LeoFit::predictiveVarianceAt(std::size_t c) const
{
    const std::size_t q = rank();
    require(q > 0 && hasBasis(*this) && varCore.rows() == q &&
                varCore.cols() == q,
            "predictiveVarianceAt: missing varCore");
    require(c < prior->dim(), "predictiveVarianceAt: index out of range");
    // Column c of Q: the prior rows' entries, then the column
    // evaluator's, each bit for bit the materialized basis's entry.
    constexpr std::size_t kStackColumn = 64;
    double stack_col[kStackColumn];
    std::vector<double> heap_col;
    double *col = stack_col;
    if (q > kStackColumn) {
        heap_col.resize(q);
        col = heap_col.data();
    }
    const std::size_t r = prior->rank();
    for (std::size_t k = 0; k < r; ++k)
        col[k] = prior->rows().at(k, c);
    observedColumnInto(col + r, *prior, kept, c);
    // Both dots accumulate in increasing index order: the inner one
    // is entry (k, c) of varCore Q as Matrix::multiplyInto forms it,
    // the outer one sums the diagonal over k. The value is therefore
    // the full expansion's entry c, bit for bit.
    double cov = 0.0;
    for (std::size_t k = 0; k < q; ++k) {
        const double *ctk = varCore.data() + k * q;
        double t = 0.0;
        for (std::size_t k2 = 0; k2 < q; ++k2)
            t += ctk[k2] * col[k2];
        cov += col[k] * t;
    }
    return (alphaDiag + cov + sigma2) * scale * scale;
}

linalg::Matrix
observedBasis(const PriorBasis &prior, const KeptBlock &kept)
{
    const std::size_t r = prior.rank();
    const std::size_t n = prior.dim();
    const std::size_t kn = kept.units.size();
    require(blockShapesMatch(kept, r),
            "observedBasis: block shapes disagree with the prior");
    for (const std::size_t u : kept.units)
        require(u < n, "observedBasis: unit out of range");
    linalg::Matrix qmat(r + kn, n);
    std::copy(prior.rows().data(), prior.rows().data() + r * n,
              qmat.data());
    std::vector<double> col(kn);
    for (std::size_t j = 0; j < n; ++j) {
        observedColumnInto(col.data(), prior, kept, j);
        for (std::size_t d = 0; d < kn; ++d)
            qmat.at(r + d, j) = col[d];
    }
    return qmat;
}

void
expandInto(linalg::Vector &x, const PriorBasis &prior,
           const KeptBlock &kept, const linalg::Vector &t)
{
    // Q_o' t_o = (E_k - Q_p' W_k') y with y = L_k^-T t_o.
    const std::size_t r = prior.rank();
    const std::size_t kn = kept.units.size();
    linalg::Vector y(kn);
    for (std::size_t c = kn; c-- > 0;) {
        double v = t[r + c];
        for (std::size_t c2 = c + 1; c2 < kn; ++c2)
            v -= kept.l.at(c2, c) * y[c2];
        y[c] = v / kept.l.at(c, c);
    }
    linalg::Vector tp(r);
    for (std::size_t k = 0; k < r; ++k)
        tp[k] = t[k];
    for (std::size_t c = 0; c < kn; ++c)
        linalg::axpyN(tp.data(), kept.w.data() + c * r, -y[c], r);
    linalg::gemvTransInto(x, prior.rows(), tp);
    for (std::size_t c = 0; c < kn; ++c)
        x[kept.units[c]] += y[c];
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
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals) const
{
    return estimateMetric(space, prior, obs_idx, obs_vals, nullptr,
                          nullptr);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, LeoFit *fit_out) const
{
    // An empty prior leaves no basis to build; it degrades below like
    // any other unbuildable prior.
    require(prior.empty() || prior.front().size() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, nullptr, prior, obs_idx, obs_vals, ws,
                          fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *,
                             LeoFit *fit_out, CovarianceRep) const
{
    return estimateMetric(space, prior, obs_idx, obs_vals, ws, fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::shared_ptr<const PriorBasis> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, LeoFit *fit_out) const
{
    require(prior != nullptr, "LeoEstimator: null prior basis");
    require(prior->dim() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, prior, {}, obs_idx, obs_vals, ws,
                          fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             std::shared_ptr<const PriorBasis> basis,
                             const std::vector<linalg::Vector> &raw,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, LeoFit *fit_out) const
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

    // A prior the basis cannot be built from (empty, a non-positive
    // mean, ragged vectors) leaves no fit to run: it goes straight to
    // the degradation path below.
    if (basis == nullptr) {
        try {
            basis = std::make_shared<const PriorBasis>(raw);
        } catch (const Error &) {
            // No basis: degrade below.
        }
    }

    if (basis != nullptr) {
        try {
            LeoFit fit = fitWith(basis, idx, vals, ws);
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

        // The EM fit failed (singular covariance even after the
        // Cholesky jitter schedule) or went non-finite. Retry with a
        // heavy NIW ridge — a deliberately over-regularized fit that
        // trades statistical efficiency for existence (DESIGN.md
        // "Failure model and degradation policy").
        emObs().ridge.add(1);
        try {
            LeoOptions ridge = options_;
            ridge.hyperPsiScale =
                std::max(options_.hyperPsiScale * 100.0, 1.0);
            ridge.initSigma2 = std::max(options_.initSigma2, 1e-2);
            const LeoEstimator heavy(ridge);
            LeoFit fit = heavy.fitWith(basis, idx, vals, nullptr);
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
    // scale when any observation survived, or with no usable prior a
    // flat guess at the observed mean. Always finite; never updates
    // fit_out.
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
                        const linalg::Vector &obs_vals,
                        linalg::Workspace *ws) const
{
    obs::Span span(obs::names::kEmFitSpan, "em");
    const auto basis = std::make_shared<const PriorBasis>(prior);
    LeoFit fit = fitWith(basis, obs_idx, obs_vals, ws);
    traceFit(span, *basis, fit);
    return fit;
}

LeoFit
LeoEstimator::fitMetric(const std::shared_ptr<const PriorBasis> &prior,
                        const std::vector<std::size_t> &obs_idx,
                        const linalg::Vector &obs_vals,
                        linalg::Workspace *ws) const
{
    require(prior != nullptr, "LeoEstimator: null prior basis");
    obs::Span span(obs::names::kEmFitSpan, "em");
    LeoFit fit = fitWith(prior, obs_idx, obs_vals, ws);
    traceFit(span, *prior, fit);
    return fit;
}

LeoFit
LeoEstimator::fitWith(const std::shared_ptr<const PriorBasis> &prior,
                      const std::vector<std::size_t> &obs_idx_in,
                      const linalg::Vector &obs_vals_in,
                      linalg::Workspace *ws) const
{
    require(obs_idx_in.size() == obs_vals_in.size(),
            "LeoEstimator: observation index/value mismatch");
    for (std::size_t idx : obs_idx_in)
        require(idx < prior->dim(),
                "LeoEstimator: observation index out of range");
    std::vector<std::size_t> ordered_idx;
    linalg::Vector ordered_vals;
    const bool reordered =
        orderByIndex(obs_idx_in, obs_vals_in, ordered_idx, ordered_vals);
    const std::vector<std::size_t> &obs_idx =
        reordered ? ordered_idx : obs_idx_in;
    const linalg::Vector &obs_vals =
        reordered ? ordered_vals : obs_vals_in;

    // Estimation happens on unit-mean shapes (see normalization.hh),
    // normalized once per prior by the PriorBasis; the target's
    // observations are scaled by their own anchor.
    const std::size_t s = obs_idx.size();
    const double scale = s > 0 ? observedScale(obs_vals) : 1.0;
    linalg::Vector x_obs(s);
    for (std::size_t j = 0; j < s; ++j)
        x_obs[j] = obs_vals[j] / scale;
    return fitLowRank(options_, prior, obs_idx, x_obs, scale, ws,
                      alloc_counter);
}

} // namespace leo::estimators

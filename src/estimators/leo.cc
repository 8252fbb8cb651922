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
#include <cstring>
#include <numbers>
#include <numeric>
#include <optional>
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
 * Q_o = L^-1 (E_Omega' - W Q_p), are formed once, for the prediction,
 * mu and LeoFit::basisT (observedRowsInto).
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

/** Q = [Q_p; Q_o] (q x n) of one observed block: the shared prior
 *  rows, then observedRowsInto. */
linalg::Matrix
basisOf(const PriorBasis &prior, const ObservedBlock &ob,
        linalg::Workspace &arena)
{
    const std::size_t rp = prior.rank();
    const std::size_t n = prior.dim();
    linalg::Matrix qmat(rp + ob.kept.size(), n);
    std::copy(prior.rows().data(), prior.rows().data() + rp * n,
              qmat.data());
    observedRowsInto(qmat, prior, ob, arena);
    return qmat;
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
 * coordinates [R | 0] without an n-length sweep before the loop.
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
    // prediction and mu after the loop and LeoFit::basisT.
    Matrix qmat = basisOf(prior, ob, arena);

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
    // A warm fit must carry finite factors on this space; anything
    // else falls back to the cold init.
    const bool warm_ok =
        warm != nullptr && warm->basisT.cols() == n &&
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

    // The posterior variance stays factored in varCore;
    // LeoFit::predictiveVarianceAt reads one configuration at a time.
    linalg::gemvTransInto(fit.mu, qmat, g);
    fit.sigma2 = sigma2;
    fit.basisT = std::move(qmat);
    fit.observedUnits = ob.units;
    fit.priorFingerprint = prior.fingerprint();
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
    span.arg("rank", static_cast<double>(fit.basisT.rows()));
    span.arg("iters", static_cast<double>(fit.iterations));
    span.arg("converged", fit.converged ? 1.0 : 0.0);
}

} // namespace

linalg::Matrix
LeoFit::covariance() const
{
    const std::size_t q = basisT.rows();
    require(q > 0 && basisT.cols() > 0 && coeff.rows() == q &&
                coeff.cols() == q,
            "LeoFit::covariance: missing or mismatched factors");
    const linalg::Matrix cq = linalg::Matrix::multiply(coeff, basisT);
    linalg::Matrix sigma;
    linalg::atbInto(sigma, basisT, cq);
    sigma.addToDiagonal(alphaDiag);
    sigma.symmetrize();
    return sigma;
}

double
LeoFit::predictiveVarianceAt(std::size_t c) const
{
    const std::size_t q = basisT.rows();
    require(q > 0 && varCore.rows() == q && varCore.cols() == q,
            "predictiveVarianceAt: missing varCore");
    require(c < basisT.cols(), "predictiveVarianceAt: index out of range");
    // Both dots accumulate in increasing index order: the inner one
    // is entry (k, c) of varCore basisT as Matrix::multiplyInto
    // forms it, the outer one sums the diagonal over k. The value is
    // therefore the full expansion's entry c, bit for bit.
    const std::size_t n = basisT.cols();
    const double *b = basisT.data();
    double cov = 0.0;
    for (std::size_t k = 0; k < q; ++k) {
        const double *ctk = varCore.data() + k * q;
        double t = 0.0;
        for (std::size_t k2 = 0; k2 < q; ++k2)
            t += ctk[k2] * b[k2 * n + c];
        cov += b[k * n + c] * t;
    }
    return (alphaDiag + cov + sigma2) * scale * scale;
}

linalg::Matrix
observedBasis(const PriorBasis &prior,
              const std::vector<std::size_t> &units)
{
    for (const std::size_t u : units)
        require(u < prior.dim(), "observedBasis: unit out of range");
    linalg::Workspace arena;
    return basisOf(prior, observeUnits(prior, units, arena), arena);
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
    // An empty prior leaves no basis to build; it degrades below like
    // any other unbuildable prior.
    require(prior.empty() || prior.front().size() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, nullptr, prior, obs_idx, obs_vals, ws,
                          warm, fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const std::vector<linalg::Vector> &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out, CovarianceRep) const
{
    return estimateMetric(space, prior, obs_idx, obs_vals, ws, warm,
                          fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const PriorBasis &prior,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out) const
{
    require(prior.dim() == space.size(),
            "LeoEstimator: prior/space size mismatch");
    return estimateMetric(space, &prior, {}, obs_idx, obs_vals, ws, warm,
                          fit_out);
}

MetricEstimate
LeoEstimator::estimateMetric(const platform::ConfigSpace &space,
                             const PriorBasis *shared,
                             const std::vector<linalg::Vector> &raw,
                             const std::vector<std::size_t> &obs_idx,
                             const linalg::Vector &obs_vals,
                             linalg::Workspace *ws, const LeoFit *warm,
                             LeoFit *fit_out) const
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
            LeoFit fit = fitWith(*basis, idx, vals, ws, warm);
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
        // Cholesky jitter schedule) or went non-finite. Retry cold
        // with a heavy NIW ridge — a deliberately over-regularized
        // fit that trades statistical efficiency for existence
        // (DESIGN.md "Failure model and degradation policy").
        emObs().ridge.add(1);
        try {
            LeoOptions ridge = options_;
            ridge.hyperPsiScale =
                std::max(options_.hyperPsiScale * 100.0, 1.0);
            ridge.initSigma2 = std::max(options_.initSigma2, 1e-2);
            const LeoEstimator heavy(ridge);
            LeoFit fit =
                heavy.fitWith(*basis, idx, vals, nullptr, nullptr);
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
    // fit_out (the caller's warm state stays intact).
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
    LeoFit fit = fitWith(basis, obs_idx, obs_vals, ws, warm);
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
    LeoFit fit = fitWith(prior, obs_idx, obs_vals, ws, warm);
    traceFit(span, prior, fit);
    return fit;
}

LeoFit
LeoEstimator::fitWith(const PriorBasis &prior,
                      const std::vector<std::size_t> &obs_idx_in,
                      const linalg::Vector &obs_vals_in,
                      linalg::Workspace *ws, const LeoFit *warm) const
{
    require(obs_idx_in.size() == obs_vals_in.size(),
            "LeoEstimator: observation index/value mismatch");
    for (std::size_t idx : obs_idx_in)
        require(idx < prior.dim(),
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
    return fitLowRank(options_, prior, obs_idx, x_obs, scale, ws, warm,
                      alloc_counter);
}

} // namespace leo::estimators

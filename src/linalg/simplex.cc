/**
 * @file
 * Implementation of the two-phase dense simplex solver.
 */

#include "linalg/simplex.hh"

#include <cmath>
#include <limits>

#include "obs/obs.hh"

namespace leo::linalg
{

namespace
{

constexpr double kEps = 1e-9;

/** Registry instruments of the LP solver (lazily registered). */
struct LpObs
{
    obs::Counter solves =
        obs::Registry::global().counter(obs::names::kLpSolvesRun);
    obs::Counter pivots =
        obs::Registry::global().counter(obs::names::kLpPivotsStepped);
};

LpObs &
lpObs()
{
    static LpObs o;
    return o;
}

/**
 * Dense simplex tableau in standard form:
 *
 *     min c' x  s.t.  A x = b,  x >= 0,  b >= 0,
 *
 * with an explicit basis. Pivoting uses Bland's rule (smallest
 * improving column, smallest basic index among ratio ties). Bland's
 * rule cannot cycle in exact arithmetic; in floating point it relies
 * on the tableau staying canonical, so every pivot eliminates each
 * nonzero entry of the pivot column and stores an exact zero there:
 * reducedCost() reads the basic columns as exact unit vectors, and a
 * tableau that drifts from that form can step millions of pivots
 * into the safety valve (GlobalPlanRegression in global_test).
 */
class Tableau
{
  public:
    Tableau(const Matrix &a, const Vector &b, const Vector &c,
            std::vector<std::size_t> basis)
        : a_(a), b_(b), c_(c), basis_(std::move(basis))
    {
    }

    /** Run simplex iterations until optimal or unbounded. */
    LpStatus
    iterate()
    {
        const std::size_t m = a_.rows();
        const std::size_t n = a_.cols();
        // Upper bound on iterations: C(n, m) explodes, but Bland's
        // rule on a canonical tableau terminates; keep a generous
        // safety valve against round-off.
        const std::size_t max_iters = 10000 + 100 * n * (m + 1);

        for (std::size_t iter = 0; iter < max_iters; ++iter) {
            // Compute reduced costs via the basis inverse implicitly:
            // the tableau is kept in canonical form, so reduced costs
            // are c_ - c_B' A_ directly.
            std::size_t entering = n;
            for (std::size_t j = 0; j < n; ++j) {
                if (reducedCost(j) < -kEps) {
                    entering = j;
                    break; // Bland: smallest index.
                }
            }
            if (entering == n)
                return LpStatus::Optimal;

            // Ratio test.
            std::size_t leaving = m;
            double best_ratio = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < m; ++i) {
                const double aij = a_.at(i, entering);
                if (aij > kEps) {
                    const double ratio = b_[i] / aij;
                    if (ratio < best_ratio - kEps ||
                        (ratio < best_ratio + kEps &&
                         (leaving == m || basis_[i] < basis_[leaving]))) {
                        best_ratio = ratio;
                        leaving = i;
                    }
                }
            }
            if (leaving == m)
                return LpStatus::Unbounded;

            pivot(leaving, entering);
        }
        // The safety valve tripped; callers read Unbounded as "no
        // plan" and fall back.
        return LpStatus::Unbounded;
    }

    /** Reduced cost of column j in the current canonical tableau. */
    double
    reducedCost(std::size_t j) const
    {
        double z = 0.0;
        for (std::size_t i = 0; i < a_.rows(); ++i)
            z += c_[basis_[i]] * a_.at(i, j);
        return c_[j] - z;
    }

    /** Gauss-Jordan pivot on (row, col); updates the basis. */
    void
    pivot(std::size_t row, std::size_t col)
    {
        lpObs().pivots.add(1);
        const std::size_t n = a_.cols();
        const double p = a_.at(row, col);
        for (std::size_t j = 0; j < n; ++j)
            a_.at(row, j) /= p;
        b_[row] /= p;
        for (std::size_t i = 0; i < a_.rows(); ++i) {
            if (i == row)
                continue;
            const double f = a_.at(i, col);
            if (f == 0.0)
                continue;
            for (std::size_t j = 0; j < n; ++j)
                a_.at(i, j) -= f * a_.at(row, j);
            b_[i] -= f * b_[row];
            // The entering column becomes an exact unit vector.
            a_.at(i, col) = 0.0;
        }
        basis_[row] = col;
    }

    const std::vector<std::size_t> &basis() const { return basis_; }
    const Vector &rhs() const { return b_; }
    Matrix &a() { return a_; }
    Vector &b() { return b_; }
    Vector &c() { return c_; }
    std::vector<std::size_t> &basisMutable() { return basis_; }

  private:
    Matrix a_;
    Vector b_;
    Vector c_;
    std::vector<std::size_t> basis_;
};

} // namespace

LinearProgram::LinearProgram(std::size_t num_vars)
    : num_vars_(num_vars), objective_(num_vars, 0.0)
{
    require(num_vars > 0, "LinearProgram needs >= 1 variable");
}

void
LinearProgram::setObjective(const Vector &c)
{
    require(c.size() == num_vars_, "LP objective dimension mismatch");
    objective_ = c;
}

void
LinearProgram::addEquality(const Vector &a, double b)
{
    require(a.size() == num_vars_, "LP equality dimension mismatch");
    eq_rows_.push_back(a);
    eq_rhs_.push_back(b);
}

void
LinearProgram::addInequality(const Vector &a, double b)
{
    require(a.size() == num_vars_, "LP inequality dimension mismatch");
    ub_rows_.push_back(a);
    ub_rhs_.push_back(b);
}

LpSolution
LinearProgram::solve() const
{
    lpObs().solves.add(1);
    obs::Span span(obs::names::kLpSolveSpan);
    span.arg("vars", static_cast<double>(num_vars_));
    const std::size_t m_eq = eq_rows_.size();
    const std::size_t m_ub = ub_rows_.size();
    const std::size_t m = m_eq + m_ub;
    require(m > 0, "LP with no constraints");

    // Standard form: variables = [x | slacks | artificials].
    const std::size_t n_slack = m_ub;
    const std::size_t n_total = num_vars_ + n_slack + m;

    Matrix a(m, n_total, 0.0);
    Vector b(m, 0.0);

    for (std::size_t i = 0; i < m_eq; ++i) {
        for (std::size_t j = 0; j < num_vars_; ++j)
            a.at(i, j) = eq_rows_[i][j];
        b[i] = eq_rhs_[i];
    }
    for (std::size_t i = 0; i < m_ub; ++i) {
        const std::size_t r = m_eq + i;
        for (std::size_t j = 0; j < num_vars_; ++j)
            a.at(r, j) = ub_rows_[i][j];
        a.at(r, num_vars_ + i) = 1.0; // slack
        b[r] = ub_rhs_[i];
    }

    // Ensure b >= 0.
    for (std::size_t i = 0; i < m; ++i) {
        if (b[i] < 0.0) {
            b[i] = -b[i];
            for (std::size_t j = 0; j < num_vars_ + n_slack; ++j)
                a.at(i, j) = -a.at(i, j);
        }
    }

    // Artificial variables form the initial identity basis.
    std::vector<std::size_t> basis(m);
    for (std::size_t i = 0; i < m; ++i) {
        a.at(i, num_vars_ + n_slack + i) = 1.0;
        basis[i] = num_vars_ + n_slack + i;
    }

    // Phase 1: minimize the sum of artificials.
    Vector c1(n_total, 0.0);
    for (std::size_t i = 0; i < m; ++i)
        c1[num_vars_ + n_slack + i] = 1.0;

    Tableau t(a, b, c1, basis);
    // Canonicalize: subtract basic rows so reduced costs are correct.
    // (reducedCost handles this implicitly, no action needed.)
    LpStatus s1 = t.iterate();
    invariant(s1 != LpStatus::Unbounded, "phase-1 LP unbounded");

    // Feasibility threshold scales with the right-hand side: an
    // artificial stuck at 1e-6 against constraints of magnitude 1e6
    // is rounding noise, not infeasibility.
    double bmax = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        bmax = std::max(bmax, std::abs(b[i]));
    double phase1_obj = 0.0;
    for (std::size_t i = 0; i < m; ++i)
        if (t.basis()[i] >= num_vars_ + n_slack)
            phase1_obj += t.rhs()[i];
    if (phase1_obj > 1e-7 * std::max(1.0, bmax))
        return LpSolution{LpStatus::Infeasible, Vector(num_vars_), 0.0};

    // Drive any remaining artificials out of the basis, pivoting on
    // the largest available element for stability.
    for (std::size_t i = 0; i < m; ++i) {
        if (t.basis()[i] >= num_vars_ + n_slack) {
            std::size_t best = num_vars_ + n_slack;
            double best_mag = kEps;
            for (std::size_t j = 0; j < num_vars_ + n_slack; ++j) {
                const double mag = std::abs(t.a().at(i, j));
                if (mag > best_mag) {
                    best_mag = mag;
                    best = j;
                }
            }
            if (best < num_vars_ + n_slack)
                t.pivot(i, best);
        }
    }

    // Rows whose artificial could not be driven out are redundant
    // (linearly dependent on the others — duplicated equalities, zero
    // rows): every real coefficient left in them is elimination
    // residue below kEps. Drop them, and drop the artificial columns
    // with them. Keeping such rows basic with a "prohibitive" cost is
    // not an option: the cost multiplies the ~1e-16 residues into
    // garbage reduced costs that misreport bounded programs as
    // Unbounded (see simplex_stress_test.cc).
    std::vector<std::size_t> kept;
    kept.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
        if (t.basis()[i] < num_vars_ + n_slack)
            kept.push_back(i);

    if (kept.empty()) {
        // Every constraint was redundant with rhs 0: the feasible set
        // is the whole nonnegative orthant.
        Vector x(num_vars_, 0.0);
        for (std::size_t j = 0; j < num_vars_; ++j)
            if (objective_[j] < 0.0)
                return LpSolution{LpStatus::Unbounded,
                                  Vector(num_vars_), 0.0};
        return LpSolution{LpStatus::Optimal, x, 0.0};
    }

    // Phase 2: original objective over the real and slack columns
    // only; artificials are gone.
    const std::size_t n2 = num_vars_ + n_slack;
    Matrix a2(kept.size(), n2, 0.0);
    Vector b2(kept.size(), 0.0);
    std::vector<std::size_t> basis2(kept.size());
    for (std::size_t k = 0; k < kept.size(); ++k) {
        for (std::size_t j = 0; j < n2; ++j)
            a2.at(k, j) = t.a().at(kept[k], j);
        b2[k] = t.rhs()[kept[k]];
        basis2[k] = t.basis()[kept[k]];
    }
    Vector c2(n2, 0.0);
    for (std::size_t j = 0; j < num_vars_; ++j)
        c2[j] = objective_[j];

    Tableau t2(a2, b2, c2, std::move(basis2));
    LpStatus s2 = t2.iterate();
    if (s2 == LpStatus::Unbounded)
        return LpSolution{LpStatus::Unbounded, Vector(num_vars_), 0.0};

    Vector x(num_vars_, 0.0);
    for (std::size_t i = 0; i < kept.size(); ++i)
        if (t2.basis()[i] < num_vars_)
            x[t2.basis()[i]] = t2.rhs()[i];

    double obj = dot(objective_, x);
    return LpSolution{LpStatus::Optimal, x, obj};
}

} // namespace leo::linalg

/**
 * @file
 * Dense two-phase simplex solver for small linear programs.
 *
 * The energy-minimization problem of Equation (1),
 *
 *     min  sum_c p_c t_c
 *     s.t. sum_c r_c t_c  = W
 *          sum_c t_c     <= T
 *          t >= 0,
 *
 * is a linear program. LEO solves it geometrically by walking the
 * lower convex hull of the Pareto frontier (see leo::optimizer), which
 * is far cheaper. This solver is the fleet planner's LP
 * (optimizer/global.hh): N apps sharing one machine under a power
 * cap, which no hull walk answers. The tests also check the hull walk
 * against it.
 */

#ifndef LEO_LINALG_SIMPLEX_HH
#define LEO_LINALG_SIMPLEX_HH

#include <vector>

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::linalg
{

/** Outcome of a linear-program solve. */
enum class LpStatus
{
    Optimal,    //!< An optimal basic feasible solution was found.
    Infeasible, //!< The constraints admit no solution.
    Unbounded   //!< The objective is unbounded below.
};

/** Solution of a linear program. */
struct LpSolution
{
    LpStatus status = LpStatus::Infeasible;
    /** Optimal primal point (valid only when status == Optimal). */
    Vector x;
    /** Optimal objective value c' x. */
    double objective = 0.0;
};

/**
 * A linear program
 *
 *     min c' x  s.t.  Aeq x = beq,  Aub x <= bub,  x >= 0.
 *
 * Either constraint block may be empty. Solved with a dense two-phase
 * simplex using Bland's rule, with every pivot keeping the tableau
 * canonical (simplex.cc).
 */
class LinearProgram
{
  public:
    /** @param num_vars Number of decision variables. */
    explicit LinearProgram(std::size_t num_vars);

    /** Set the objective coefficients c. */
    void setObjective(const Vector &c);

    /** Append an equality constraint a' x = b. */
    void addEquality(const Vector &a, double b);

    /** Append an inequality constraint a' x <= b. */
    void addInequality(const Vector &a, double b);

    /**
     * Solve the program.
     *
     * @return The solution with status, point and objective.
     */
    LpSolution solve() const;

  private:
    std::size_t num_vars_;
    Vector objective_;
    std::vector<Vector> eq_rows_;
    std::vector<double> eq_rhs_;
    std::vector<Vector> ub_rows_;
    std::vector<double> ub_rhs_;
};

} // namespace leo::linalg

#endif // LEO_LINALG_SIMPLEX_HH

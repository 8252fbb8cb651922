/**
 * @file
 * Multivariate polynomial feature expansion.
 *
 * The Online baseline of Section 6.2 performs "polynomial multivariate
 * regression on the observed dataset using configuration values (the
 * number of cores, memory control and speed-settings) as predictors".
 * With the four knobs of the evaluation platform and total degree 2
 * this yields C(4+2, 2) = 15 features, matching the paper's remark
 * (Fig. 12) that the online method is rank deficient below 15 samples.
 */

#ifndef LEO_LINALG_POLY_FEATURES_HH
#define LEO_LINALG_POLY_FEATURES_HH

#include <vector>

#include "linalg/matrix.hh"
#include "linalg/vector.hh"

namespace leo::linalg
{

/**
 * Expands raw predictor vectors into all monomials up to a total
 * degree, including the constant term and all cross terms.
 */
class PolynomialFeatures
{
  public:
    /**
     * @param num_inputs Number of raw predictors d.
     * @param degree     Maximum total degree of the monomials.
     */
    PolynomialFeatures(std::size_t num_inputs, std::size_t degree);

    /** @return Number of expanded features C(d + degree, degree). */
    std::size_t numFeatures() const { return exponents_.size(); }

    /**
     * Expand one raw predictor vector.
     *
     * @param x Raw predictors, size num_inputs.
     * @return Feature vector of size numFeatures().
     */
    Vector expand(const Vector &x) const;

    /**
     * Expand a batch of predictor vectors into a design matrix.
     *
     * @param rows One raw predictor vector per row.
     * @return Design matrix (rows.size() x numFeatures()).
     */
    Matrix designMatrix(const std::vector<Vector> &rows) const;

  private:
    /** Recursively enumerate exponent tuples of bounded total degree. */
    void enumerate(std::vector<unsigned> &current, std::size_t pos,
                   unsigned remaining);

    std::size_t num_inputs_;
    std::vector<std::vector<unsigned>> exponents_;
};

} // namespace leo::linalg

#endif // LEO_LINALG_POLY_FEATURES_HH

/**
 * @file
 * Dense real-valued matrix used throughout LEO.
 *
 * Follows the paper's Section 3 notation: matrices live in R^{d x n}.
 */

#ifndef LEO_LINALG_MATRIX_HH
#define LEO_LINALG_MATRIX_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/vector.hh"

namespace leo::linalg
{

/**
 * A dense row-major matrix of doubles.
 *
 * Sized at construction; all binary operations check dimensions and
 * call fatal() on mismatch.
 */
class Matrix
{
  public:
    /** Construct an empty (0 x 0) matrix. */
    Matrix() = default;

    /**
     * Construct a rows x cols matrix.
     *
     * @param rows Number of rows.
     * @param cols Number of columns.
     * @param fill Initial value for every entry.
     */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /**
     * Construct from nested initializer lists (row by row).
     * All rows must have equal length.
     */
    Matrix(std::initializer_list<std::initializer_list<double>> rows);

    /** @return Number of rows. */
    std::size_t rows() const { return rows_; }
    /** @return Number of columns. */
    std::size_t cols() const { return cols_; }
    /** @return True iff the matrix is 0 x 0. */
    bool empty() const { return data_.empty(); }

    /** Bounds-checked element access. */
    double &operator()(std::size_t r, std::size_t c);
    /** Bounds-checked element access (const). */
    double operator()(std::size_t r, std::size_t c) const;

    /** Unchecked element access. */
    double &at(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    /** Unchecked element access (const). */
    double at(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    /** @return Pointer to the underlying row-major storage. */
    const double *data() const { return data_.data(); }
    /** @return Pointer to the underlying row-major storage. */
    double *data() { return data_.data(); }

    /** Overwrite row r. */
    void setRow(std::size_t r, const Vector &v);

    /** In-place addition. */
    Matrix &operator+=(const Matrix &other);
    /** In-place division by a scalar. */
    Matrix &operator/=(double s);

    /** Force exact symmetry: A <- (A + A') / 2 (square only). */
    void symmetrize();

    /** Add s to every diagonal entry (square only). */
    void addToDiagonal(double s);

    /** Set every entry to a constant. */
    void fill(double value);

    /**
     * Re-shape to rows x cols, zero-filled.
     *
     * A no-op when the shape already matches (contents preserved);
     * otherwise reuses existing capacity where possible so workspace
     * buffers re-shape without touching the heap.
     */
    void resize(std::size_t rows, std::size_t cols);

    /**
     * In-place axpy: this += scale * other (same shape), one
     * rounding step per entry.
     */
    void addScaled(double scale, const Matrix &other);

    /**
     * Rank-1 update: this += scale * x y'.
     *
     * Each entry adds (x[i] * y[j]) * scale in one rounding step.
     */
    void outerAddInto(double scale, const Vector &x, const Vector &y);

    /** Write the transpose into `out` (re-shaped as needed). */
    void transposeInto(Matrix &out) const;

    /**
     * Cache-blocked matrix product a * b.
     *
     * Tiles all three loop dimensions; for every output entry the
     * inner dimension is accumulated in increasing-k order, so the
     * result is bitwise identical to the naive i,j,k triple loop.
     */
    static Matrix multiply(const Matrix &a, const Matrix &b);

    /**
     * Into-buffer variant of multiply(): out = a * b, overwriting
     * (and re-shaping) out. Bitwise identical to multiply(a, b); out
     * must not alias a or b.
     */
    static void multiplyInto(Matrix &out, const Matrix &a,
                             const Matrix &b);

    /**
     * Gram matrix out = a' * a, overwriting (and re-shaping) out,
     * without materializing the transpose. Each lower-triangle entry
     * is the dot of two columns of a, summed from +0.0 in increasing
     * k, then mirrored, so the result is exactly symmetric. This is
     * the kernel behind the EM M-step's sums of outer products. out
     * must not alias a.
     */
    static void gramInto(Matrix &out, const Matrix &a);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Matrix-vector product. */
Vector operator*(const Matrix &a, const Vector &x);

} // namespace leo::linalg

#endif // LEO_LINALG_MATRIX_HH

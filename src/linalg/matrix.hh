/**
 * @file
 * Dense real-valued matrix used throughout LEO.
 *
 * Follows the paper's Section 3 notation: matrices live in R^{d x n},
 * tr(A) is the trace, ||X||_F the Frobenius norm and diag(x) the
 * diagonal matrix built from a vector.
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

    /** @return The d x d identity matrix. */
    static Matrix identity(std::size_t d);

    /** @return diag(x): square matrix with x on the diagonal. */
    static Matrix diag(const Vector &x);

    /** @return The outer product x y'. */
    static Matrix outer(const Vector &x, const Vector &y);

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

    /** @return Row r as a vector. */
    Vector row(std::size_t r) const;
    /** @return Column c as a vector. */
    Vector col(std::size_t c) const;
    /** Overwrite row r. */
    void setRow(std::size_t r, const Vector &v);
    /** Overwrite column c. */
    void setCol(std::size_t c, const Vector &v);

    /** In-place addition. */
    Matrix &operator+=(const Matrix &other);
    /** In-place subtraction. */
    Matrix &operator-=(const Matrix &other);
    /** In-place scaling. */
    Matrix &operator*=(double s);
    /** In-place division by a scalar. */
    Matrix &operator/=(double s);

    /** @return The transpose X'. */
    Matrix transpose() const;
    /** @return tr(A) (square matrices only). */
    double trace() const;
    /** @return The Frobenius norm ||X||_F. */
    double frobeniusNorm() const;
    /** @return The main diagonal as a vector (square only). */
    Vector diagonal() const;
    /** @return True iff all entries are finite. */
    bool allFinite() const;
    /** @return True iff ||A - A'||_max <= tol. */
    bool isSymmetric(double tol = 1e-9) const;

    /** Force exact symmetry: A <- (A + A') / 2 (square only). */
    void symmetrize();

    /** Add s to every diagonal entry (square only). */
    void addToDiagonal(double s);

    /**
     * Extract the square sub-matrix indexed by idx on both axes.
     *
     * @param idx Row/column indices to keep.
     * @return The |idx| x |idx| principal sub-matrix.
     */
    Matrix gather(const std::vector<std::size_t> &idx) const;

    /**
     * Extract the rectangular sub-matrix rows x cols.
     *
     * @param row_idx Row indices to keep.
     * @param col_idx Column indices to keep.
     */
    Matrix gather(const std::vector<std::size_t> &row_idx,
                  const std::vector<std::size_t> &col_idx) const;

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
     * In-place axpy: this += scale * other (same shape).
     *
     * Bitwise identical to `*this += scale * other` without the
     * temporary.
     */
    void addScaled(double scale, const Matrix &other);

    /**
     * Rank-1 update: this += scale * x y'.
     *
     * Each entry adds (x[i] * y[j]) * scale in one rounding step —
     * bitwise identical to `*this += scale * outer(x, y)`.
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
     * operator*(Matrix, Matrix) forwards here.
     */
    static Matrix multiply(const Matrix &a, const Matrix &b);

    /**
     * Blocked symmetric rank-k product a * a' (syrk).
     *
     * Computes the lower triangle with increasing-k dots of rows of
     * a and mirrors it, so the result is exactly symmetric and
     * bitwise identical to multiply(a, a.transpose()).
     */
    static Matrix syrk(const Matrix &a);

    /**
     * Blocked Gram matrix a' * a.
     *
     * Entry (i, j) is the increasing-k dot of columns i and j of a;
     * bitwise identical to multiply(a.transpose(), a). This is the
     * kernel behind the EM M-step's sums of outer products: for a
     * matrix whose rows are vectors r_k, gram(a) = sum_k r_k r_k'
     * accumulated in row order.
     */
    static Matrix gram(const Matrix &a);

    /**
     * Into-buffer variant of multiply(): out = a * b, overwriting
     * (and re-shaping) out. Bitwise identical to multiply(a, b); out
     * must not alias a or b.
     */
    static void multiplyInto(Matrix &out, const Matrix &a,
                             const Matrix &b);

    /**
     * Into-buffer variant of gram(): out = a' * a, overwriting out,
     * without materializing a.transpose(). Accumulates the lower
     * triangle as rank-1 row updates in row order — the same
     * increasing-k order gram() uses, hence bitwise identical — then
     * mirrors. out must not alias a.
     */
    static void gramInto(Matrix &out, const Matrix &a);

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** Matrix sum. */
Matrix operator+(Matrix a, const Matrix &b);
/** Matrix difference. */
Matrix operator-(Matrix a, const Matrix &b);
/** Scale a matrix. */
Matrix operator*(Matrix a, double s);
/** Scale a matrix. */
Matrix operator*(double s, Matrix a);
/** Matrix-matrix product. */
Matrix operator*(const Matrix &a, const Matrix &b);
/** Matrix-vector product. */
Vector operator*(const Matrix &a, const Vector &x);

} // namespace leo::linalg

#endif // LEO_LINALG_MATRIX_HH

/**
 * @file
 * Dense real-valued vector used throughout LEO.
 *
 * The notation follows Section 3 of the paper: vectors are elements
 * of R^d and the L2 norm is written ||x||_2.
 */

#ifndef LEO_LINALG_VECTOR_HH
#define LEO_LINALG_VECTOR_HH

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "linalg/error.hh"

namespace leo::linalg
{

/**
 * A dense vector of doubles.
 *
 * A thin, bounds-checked wrapper around std::vector<double> with the
 * arithmetic the estimators need. All binary operations require
 * matching dimensions and call fatal() otherwise.
 */
class Vector
{
  public:
    /** Construct an empty (0-dimensional) vector. */
    Vector() = default;

    /**
     * Construct a vector of a given size.
     *
     * @param n    Dimension.
     * @param fill Initial value for every component.
     */
    explicit Vector(std::size_t n, double fill = 0.0);

    /** Construct from an explicit component list. */
    Vector(std::initializer_list<double> values);

    /** Construct from an existing std::vector. */
    explicit Vector(std::vector<double> values);

    /** @return The dimension of the vector. */
    std::size_t size() const { return data_.size(); }

    /** @return True iff the vector has no components. */
    bool empty() const { return data_.empty(); }

    /** Bounds-checked element access. */
    double &operator()(std::size_t i);
    /** Bounds-checked element access (const). */
    double operator()(std::size_t i) const;

    /** Unchecked element access. */
    double &operator[](std::size_t i) { return data_[i]; }
    /** Unchecked element access (const). */
    double operator[](std::size_t i) const { return data_[i]; }

    /** @return Pointer to the underlying contiguous storage. */
    const double *data() const { return data_.data(); }
    /** @return Pointer to the underlying contiguous storage. */
    double *data() { return data_.data(); }

    /** Iterators so the vector works with range-for and algorithms. */
    auto begin() const { return data_.begin(); }
    auto end() const { return data_.end(); }

    /** In-place addition. */
    Vector &operator+=(const Vector &other);
    /** In-place scaling. */
    Vector &operator*=(double s);
    /** In-place division by a scalar. */
    Vector &operator/=(double s);

    /** @return The sum of all components. */
    double sum() const;
    /** @return The arithmetic mean of all components. */
    double mean() const;
    /** @return The largest component. */
    double max() const;
    /** @return The index of the largest component. */
    std::size_t argmax() const;
    /** @return The L2 norm ||x||_2. */
    double norm() const;
    /** @return The squared L2 norm ||x||_2^2. */
    double squaredNorm() const;

    /**
     * Gather a sub-vector.
     *
     * @param idx Indices to extract (each must be < size()).
     * @return The vector [x[idx[0]], x[idx[1]], ...].
     */
    Vector gather(const std::vector<std::size_t> &idx) const;

    /** Set every component to a constant. */
    void fill(double value);

    /**
     * Append one component (amortized O(1), like
     * std::vector::push_back). This is what lets incremental
     * consumers — Observations::push in particular — grow a vector
     * across a sampling round in O(n) total instead of O(n^2).
     */
    void push_back(double value) { data_.push_back(value); }

    /** Pre-allocate capacity for n components. */
    void reserve(std::size_t n) { data_.reserve(n); }

    /**
     * Re-shape to n components, zero-filled.
     *
     * A no-op when the size already matches (contents preserved);
     * shrinking or growing within existing capacity does not
     * allocate, which is what lets workspace buffers change problem
     * size without touching the heap.
     */
    void resize(std::size_t n);

    /** @return True iff all components are finite. */
    bool allFinite() const;

  private:
    std::vector<double> data_;
};

/** Scale a vector by a scalar. */
Vector operator*(Vector a, double s);

/**
 * Inner product of two vectors.
 *
 * @return x' y.
 */
double dot(const Vector &a, const Vector &b);

} // namespace leo::linalg

#endif // LEO_LINALG_VECTOR_HH

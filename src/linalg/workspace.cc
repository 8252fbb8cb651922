/**
 * @file
 * Implementation of the Workspace buffer arena.
 */

#include "linalg/workspace.hh"

namespace leo::linalg
{

Matrix &
Workspace::matrix(const std::string &key, std::size_t rows,
                  std::size_t cols)
{
    Matrix &m = matrices_[key];
    if (m.rows() != rows || m.cols() != cols) {
        m = Matrix(rows, cols, 0.0);
        ++allocations_;
    }
    return m;
}

Cholesky &
Workspace::cholesky(const std::string &key)
{
    return factors_[key];
}

std::size_t
Workspace::bytes() const
{
    std::size_t doubles = 0;
    for (const auto &kv : matrices_)
        doubles += kv.second.rows() * kv.second.cols();
    for (const auto &kv : factors_)
        doubles += kv.second.dim() * kv.second.dim();
    return doubles * sizeof(double);
}

} // namespace leo::linalg

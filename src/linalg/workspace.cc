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

std::size_t
Workspace::bytes() const
{
    std::size_t doubles = 0;
    for (const auto &kv : matrices_)
        doubles += kv.second.rows() * kv.second.cols();
    return doubles * sizeof(double);
}

void
Workspace::clear()
{
    matrices_.clear();
}

} // namespace leo::linalg

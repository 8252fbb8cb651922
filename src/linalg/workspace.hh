/**
 * @file
 * Reusable buffer arena for allocation-free hot loops.
 *
 * The EM fit (DESIGN.md "Hot-loop memory discipline") acquires every
 * per-iteration temporary from a Workspace before entering its
 * iteration loop. A buffer is keyed by name and shape: asking again
 * with the same key and shape returns the existing storage untouched,
 * so a loop that acquires its buffers up front never allocates while
 * iterating, and a caller that keeps the Workspace alive across fits
 * pays the allocation cost only once. The fit's Cholesky factors live
 * here too, so a refit through a kept Workspace reuses their storage.
 */

#ifndef LEO_LINALG_WORKSPACE_HH
#define LEO_LINALG_WORKSPACE_HH

#include <cstddef>
#include <map>
#include <string>

#include "linalg/cholesky.hh"
#include "linalg/matrix.hh"

namespace leo::linalg
{

/**
 * A named arena of Matrix buffers keyed by shape.
 *
 * Ownership rules:
 *  - The arena owns every buffer; references stay valid until the
 *    buffer is re-shaped (same key, different shape) or clear() runs.
 *    The node-based map guarantees that acquiring new buffers never
 *    moves existing ones.
 *  - Re-acquiring a key with the *same* shape returns the buffer with
 *    its previous contents intact — callers must overwrite what they
 *    read, and get cross-call reuse (repeated fits) for free.
 *  - Re-acquiring a key with a *different* shape discards the old
 *    contents and counts as a new allocation.
 *  - Not thread-safe: one fit (or one owner) at a time. Concurrent
 *    fits each take their own Workspace.
 */
class Workspace
{
  public:
    /**
     * Acquire (or reuse) a rows x cols matrix buffer.
     *
     * A newly created or re-shaped buffer is zero-filled; a reused
     * one keeps its previous contents.
     */
    Matrix &matrix(const std::string &key, std::size_t rows,
                   std::size_t cols);

    /**
     * Acquire (or reuse) a Cholesky factorization slot. Its factor
     * storage persists across acquisitions, so reserve() allocates
     * only when the order grows; factorize() overwrites the rest.
     */
    Cholesky &cholesky(const std::string &key);

    /**
     * @return Number of buffer (re-)creations so far. Stable across
     *         calls that only reuse buffers — the allocation-free
     *         property the estimator tests assert.
     */
    std::size_t allocations() const { return allocations_; }

    /**
     * @return Total payload held by the arena, in bytes (the double
     *         storage of every live buffer and factor; map overhead
     *         excluded). Exported as the `em.workspace.bytes` gauge.
     */
    std::size_t bytes() const;

    /** Drop every buffer and factor (references become dangling). */
    void clear();

  private:
    std::map<std::string, Matrix> matrices_;
    std::map<std::string, Cholesky> factors_;
    std::size_t allocations_ = 0;
};

} // namespace leo::linalg

#endif // LEO_LINALG_WORKSPACE_HH

/**
 * @file
 * A deterministic data-parallel loop on top of ThreadPool.
 *
 * parallelFor guarantees *bitwise-identical results at any worker
 * count*, which is what lets the estimator and service tests assert
 * exact equality between serial and parallel runs:
 *
 *  - Each index is one task: body(i) runs once for every i, and
 *    what it computes depends only on i — never on the worker count
 *    or on scheduling order.
 *  - Indices may be *executed* in any order on any thread; only
 *    writes to disjoint slots are used to publish results. The
 *    zero-worker inline path runs the same bodies in index order.
 *
 * Exception behaviour: the first exception thrown by a body is
 * captured and rethrown in the calling thread after every in-flight
 * body has finished; remaining indices still run (cancellation would
 * make partial results scheduling-dependent).
 *
 * Nesting: when called from inside a pool worker the loop runs
 * inline, so parallel algorithms compose without deadlock or
 * over-subscription.
 */

#ifndef LEO_PARALLEL_PARALLEL_FOR_HH
#define LEO_PARALLEL_PARALLEL_FOR_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>

#include "parallel/thread_pool.hh"

namespace leo::parallel
{

/**
 * Run body(i) for every i in [0, n), fanned across the pool; the
 * calling thread participates.
 *
 * The body runs concurrently on several threads and must only touch
 * disjoint state per index (e.g. slot writes indexed by position).
 *
 * @param pool Pool whose workers help out (0 workers = inline).
 * @param n    Number of items.
 * @param body Callable (std::size_t i).
 */
template <typename Body>
void
parallelFor(ThreadPool &pool, std::size_t n, Body &&body)
{
    if (n == 0)
        return;
    const std::size_t helpers = std::min(pool.workerCount(), n - 1);
    if (helpers == 0 || ThreadPool::insideWorker()) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    struct Shared
    {
        std::atomic<std::size_t> next{0};
        std::mutex mutex;
        std::condition_variable cv;
        std::size_t helpers_done = 0;
        std::exception_ptr error;
    } shared;

    auto drain = [&]() {
        for (;;) {
            const std::size_t i =
                shared.next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(shared.mutex);
                if (!shared.error)
                    shared.error = std::current_exception();
            }
        }
    };

    for (std::size_t h = 0; h < helpers; ++h) {
        pool.post([&shared, &drain]() {
            drain();
            // Notify while holding the mutex: `shared` lives on the
            // caller's stack, and the caller may destroy it as soon
            // as it observes the final helpers_done. Holding the
            // lock across the notify keeps the caller from waking,
            // re-acquiring and returning before the signal call has
            // finished touching the condition variable.
            std::lock_guard<std::mutex> lock(shared.mutex);
            ++shared.helpers_done;
            shared.cv.notify_one();
        });
    }
    drain();
    {
        std::unique_lock<std::mutex> lock(shared.mutex);
        shared.cv.wait(lock, [&]() {
            return shared.helpers_done == helpers;
        });
    }
    if (shared.error)
        std::rethrow_exception(shared.error);
}

} // namespace leo::parallel

#endif // LEO_PARALLEL_PARALLEL_FOR_HH

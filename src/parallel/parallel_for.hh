/**
 * @file
 * Deterministic data-parallel loops on top of ThreadPool.
 *
 * Every primitive here guarantees *bitwise-identical results at any
 * worker count*, which is what lets the batch and service tests
 * assert exact equality between serial and parallel runs:
 *
 *  - Work is split into chunks whose boundaries depend only on the
 *    problem size and the caller-supplied grain — never on the
 *    worker count or on scheduling order.
 *  - Chunks may be *executed* in any order on any thread; only
 *    writes to disjoint slots are used to publish results. The
 *    zero-worker inline path executes the same chunking.
 *
 * Exception behaviour: the first exception thrown by a chunk body is
 * captured and rethrown in the calling thread after every in-flight
 * chunk has finished; remaining chunks still run (cancellation would
 * make partial results scheduling-dependent).
 *
 * Nesting: when called from inside a pool worker these loops run
 * inline (same chunking), so parallel algorithms compose without
 * deadlock or over-subscription.
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
 * Run body(begin, end) over [0, n) split into ceil(n / grain)
 * chunks, fanned across the pool; the calling thread participates.
 *
 * The body runs concurrently on several threads and must only touch
 * disjoint state per chunk (e.g. slot writes indexed by position).
 *
 * @param pool  Pool whose workers help out (0 workers = inline).
 * @param n     Number of items.
 * @param grain Items per chunk (0 is treated as 1). Chunk layout is
 *              independent of the worker count — the determinism
 *              anchor.
 * @param body  Callable (std::size_t begin, std::size_t end).
 */
template <typename Body>
void
parallelForChunked(ThreadPool &pool, std::size_t n, std::size_t grain,
                   Body &&body)
{
    if (n == 0)
        return;
    if (grain == 0)
        grain = 1;
    const std::size_t chunks = (n + grain - 1) / grain;
    auto run_chunk = [&](std::size_t c) {
        const std::size_t begin = c * grain;
        body(begin, std::min(n, begin + grain));
    };

    const std::size_t helpers =
        std::min(pool.workerCount(), chunks - 1);
    if (helpers == 0 || ThreadPool::insideWorker()) {
        for (std::size_t c = 0; c < chunks; ++c)
            run_chunk(c);
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
            const std::size_t c =
                shared.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= chunks)
                return;
            try {
                run_chunk(c);
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

/**
 * Run body(i) for every i in [0, n), one item per chunk.
 */
template <typename Body>
void
parallelFor(ThreadPool &pool, std::size_t n, Body &&body)
{
    parallelForChunked(pool, n, 1,
                       [&](std::size_t begin, std::size_t end) {
                           for (std::size_t i = begin; i < end; ++i)
                               body(i);
                       });
}

} // namespace leo::parallel

#endif // LEO_PARALLEL_PARALLEL_FOR_HH

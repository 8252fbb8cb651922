/**
 * @file
 * A small fixed-size worker pool shared by the estimators and the
 * experiment drivers.
 *
 * Design constraints (see DESIGN.md "Parallel execution"):
 *
 *  - One pool per process by default (ThreadPool::global()), sized
 *    from the LEO_THREADS environment variable or, failing that,
 *    std::thread::hardware_concurrency(). Callers never block a
 *    worker waiting for other workers: parallelFor
 *    (parallel_for.hh) makes the calling thread participate and
 *    runs inline when called from inside a worker
 *    (ThreadPool::insideWorker()), so nesting cannot deadlock and
 *    never over-subscribes the machine.
 *  - A pool with zero workers degenerates to inline execution in the
 *    submitting thread; all algorithms built on the pool therefore
 *    have a serial mode that exercises the identical code path and
 *    (per parallel_for.hh) the identical floating-point accumulation
 *    order.
 *  - post() is fire-and-forget and its task must not throw:
 *    parallelFor (parallel_for.hh) posts its helpers through it and
 *    captures its bodies' exceptions itself.
 */

#ifndef LEO_PARALLEL_THREAD_POOL_HH
#define LEO_PARALLEL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace leo::parallel
{

/**
 * A fixed-size pool of worker threads with a shared FIFO queue.
 *
 * Thread safe: any thread may post() concurrently. The
 * destructor drains the queue (every task already posted runs) and
 * joins all workers.
 */
class ThreadPool
{
  public:
    /**
     * @param workers Number of worker threads to spawn. Zero is
     *                valid and means every task runs inline in the
     *                submitting thread.
     */
    explicit ThreadPool(std::size_t workers);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Drains the queue and joins the workers. */
    ~ThreadPool();

    /** @return Number of worker threads (0 = inline pool). */
    std::size_t workerCount() const { return threads_.size(); }

    /**
     * @return Usable concurrency of loops run through this pool:
     *         the workers plus the participating caller.
     */
    std::size_t concurrency() const { return workerCount() + 1; }

    /**
     * Enqueue a fire-and-forget task.
     *
     * With zero workers the task runs inline before post() returns.
     * The task must not throw: a worker has no caller to hand the
     * exception to. parallelFor captures its bodies' exceptions and
     * rethrows them in the calling thread.
     */
    void post(std::function<void()> task);

    /**
     * @return True iff the calling thread is one of this process's
     *         pool workers (any pool). parallelFor uses this to
     *         fall back to inline execution instead of blocking a
     *         worker on other workers.
     */
    static bool insideWorker();

    /**
     * Default pool concurrency: the LEO_THREADS environment variable
     * when set to a positive integer, otherwise
     * std::thread::hardware_concurrency() (at least 1).
     */
    static std::size_t defaultConcurrency();

    /**
     * The process-wide shared pool, lazily created with
     * defaultConcurrency() - 1 workers (the caller is the remaining
     * thread).
     */
    static ThreadPool &global();

  private:
    /** A queued task plus its enqueue timestamp (for the
     *  `pool.wait.ms` observability histogram). */
    struct QueuedTask
    {
        std::function<void()> fn;
        double enqueueMs = 0.0;
    };

    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<QueuedTask> queue_;
    bool stopping_ = false;
    std::vector<std::thread> threads_;
};

} // namespace leo::parallel

#endif // LEO_PARALLEL_THREAD_POOL_HH

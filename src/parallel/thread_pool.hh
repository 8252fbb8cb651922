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
 *    worker waiting for other workers: the parallel_for.hh
 *    primitives make the calling thread participate, and work
 *    submitted from inside a worker runs inline
 *    (ThreadPool::insideWorker()), so nesting cannot deadlock and
 *    never over-subscribes the machine.
 *  - A pool with zero workers degenerates to inline execution in the
 *    submitting thread; all algorithms built on the pool therefore
 *    have a serial mode that exercises the identical code path and
 *    (per parallel_for.hh) the identical floating-point accumulation
 *    order.
 *  - submit() returns a std::future so exceptions thrown by tasks
 *    propagate to whoever joins the result; post() is the raw
 *    fire-and-forget used by the parallel loops, which do their own
 *    exception capture.
 */

#ifndef LEO_PARALLEL_THREAD_POOL_HH
#define LEO_PARALLEL_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace leo::parallel
{

/**
 * A fixed-size pool of worker threads with a shared FIFO queue.
 *
 * Thread safe: any thread may post()/submit() concurrently. The
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
     * The task must not throw; use submit() when exceptions need to
     * reach the caller.
     */
    void post(std::function<void()> task);

    /**
     * Enqueue a task and obtain its result as a future.
     *
     * Exceptions thrown by the task are rethrown by future::get().
     * With zero workers the task runs inline before submit() returns
     * (the future is then already ready).
     */
    template <typename F>
    auto submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> result = task->get_future();
        post([task]() { (*task)(); });
        return result;
    }

    /**
     * @return True iff the calling thread is one of this process's
     *         pool workers (any pool). Parallel loops use this to
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

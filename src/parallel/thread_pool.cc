/**
 * @file
 * Implementation of the worker pool.
 */

#include "parallel/thread_pool.hh"

#include <chrono>
#include <cstdlib>
#include <string>

#include "obs/obs.hh"

namespace leo::parallel
{

namespace
{

/** Set for the lifetime of every worker thread, in any pool. */
thread_local bool inside_worker = false;

/** Registry instruments shared by every pool in the process. */
struct PoolObs
{
    obs::Counter posted =
        obs::Registry::global().counter(obs::names::kPoolTasksPosted);
    obs::Counter executed =
        obs::Registry::global().counter(obs::names::kPoolTasksExecuted);
    obs::Gauge depth =
        obs::Registry::global().gauge(obs::names::kPoolQueueDepth);
    obs::Histogram wait_ms = obs::Registry::global().histogram(
        obs::names::kPoolWaitMs, obs::defaultTimeBucketsMs());
    obs::Histogram task_ms = obs::Registry::global().histogram(
        obs::names::kPoolTaskMs, obs::defaultTimeBucketsMs());
};

PoolObs &
poolObs()
{
    static PoolObs o;
    return o;
}

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

ThreadPool::ThreadPool(std::size_t workers)
{
    threads_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i)
        threads_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    PoolObs &po = poolObs();
    po.posted.add(1);
    if (threads_.empty()) {
        // Inline pool: run right here. No queue to measure — and no
        // timing either, so the strictly-serial path stays free of
        // clock reads (it is the reference for the 0-ULP and
        // allocation-audit tests).
        task();
        po.executed.add(1);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back({std::move(task), nowMs()});
        po.depth.set(static_cast<double>(queue_.size()));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    inside_worker = true;
    PoolObs &po = poolObs();
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            po.depth.set(static_cast<double>(queue_.size()));
        }
        const double t0 = nowMs();
        po.wait_ms.record(t0 - task.enqueueMs);
        task.fn();
        po.task_ms.record(nowMs() - t0);
        po.executed.add(1);
    }
}

bool
ThreadPool::insideWorker()
{
    return inside_worker;
}

std::size_t
ThreadPool::defaultConcurrency()
{
    if (const char *env = std::getenv("LEO_THREADS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && v > 0)
            return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultConcurrency() - 1);
    return pool;
}

} // namespace leo::parallel

/**
 * @file
 * Unit tests for the parallel subsystem: ThreadPool lifecycle and
 * the deterministic parallelFor loop.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.hh"
#include "parallel/thread_pool.hh"

using namespace leo;
using parallel::ThreadPool;

namespace
{

/** Lets the test thread wait for the tasks it post()ed. */
class Finished
{
  public:
    /** A task's last action. */
    void mark()
    {
        // Notify under the lock: the waiter may destroy this object
        // as soon as it sees the final count.
        std::lock_guard<std::mutex> lock(mutex_);
        ++count_;
        cv_.notify_all();
    }

    /** Block until n tasks have called mark(). */
    void waitFor(int n)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [&]() { return count_ >= n; });
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    int count_ = 0;
};

} // namespace

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CompletesEveryTask)
{
    std::atomic<int> count{0};
    Finished finished;
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i)
        pool.post([&]() {
            ++count;
            finished.mark();
        });
    finished.waitFor(100);
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(1);
        for (int i = 0; i < 50; ++i)
            pool.post([&count]() {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(10));
                ++count;
            });
    }
    // Destruction joins only after every already-posted task ran.
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroWorkersRunInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    EXPECT_EQ(pool.concurrency(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id ran_on;
    bool ran = false;
    pool.post([&]() {
        ran_on = std::this_thread::get_id();
        ran = true;
    });
    // Inline execution: done before post() returns, on this thread.
    EXPECT_TRUE(ran);
    EXPECT_EQ(ran_on, caller);
}

TEST(ThreadPool, ReentrantSubmissionDoesNotDeadlock)
{
    std::atomic<bool> inside{false};
    std::atomic<int> inner{0};
    Finished finished;
    ThreadPool pool(2);
    // A task that itself fans a loop across the same pool: the
    // nesting rule (insideWorker -> inline) must keep this from
    // blocking a worker on other workers.
    pool.post([&]() {
        inside = ThreadPool::insideWorker();
        parallel::parallelFor(pool, 64,
                              [&inner](std::size_t) { ++inner; });
        finished.mark();
    });
    finished.waitFor(1);
    EXPECT_TRUE(inside.load());
    EXPECT_EQ(inner.load(), 64);
}

TEST(ThreadPool, InsideWorkerFalseOnCaller)
{
    EXPECT_FALSE(ThreadPool::insideWorker());
    std::atomic<bool> inside{false};
    Finished finished;
    ThreadPool pool(1);
    pool.post([&]() {
        inside = ThreadPool::insideWorker();
        finished.mark();
    });
    finished.waitFor(1);
    EXPECT_TRUE(inside.load());
}

TEST(ThreadPool, DefaultConcurrencyPositive)
{
    EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
    EXPECT_GE(ThreadPool::global().concurrency(), 1u);
}

// ------------------------------------------------------------ parallelFor

TEST(ParallelFor, TouchesEveryIndexOnce)
{
    ThreadPool pool(3);
    std::vector<int> hits(1000, 0);
    parallel::parallelFor(pool, hits.size(),
                          [&](std::size_t i) { ++hits[i]; });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ParallelFor, EmptyRangeIsNoop)
{
    ThreadPool pool(2);
    bool called = false;
    parallel::parallelFor(pool, 0,
                          [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelFor, BodyExceptionRethrownInCaller)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        parallel::parallelFor(pool, 100,
                              [](std::size_t i) {
                                  if (i == 57)
                                      throw std::runtime_error("57");
                              }),
        std::runtime_error);
    // Pool survives the exception and keeps working.
    std::atomic<int> count{0};
    parallel::parallelFor(pool, 10,
                          [&count](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    const std::thread::id caller = std::this_thread::get_id();
    parallel::parallelFor(pool, 16, [&](std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

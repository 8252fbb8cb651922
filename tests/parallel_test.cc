/**
 * @file
 * Unit tests for the parallel subsystem: ThreadPool lifecycle and
 * the deterministic parallelFor / parallelForChunked primitives.
 */

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "parallel/parallel_for.hh"
#include "parallel/thread_pool.hh"

using namespace leo;
using parallel::ThreadPool;

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPool, CompletesEveryTask)
{
    ThreadPool pool(3);
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(pool.submit([&count]() { ++count; }));
    for (auto &f : futures)
        f.get();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(2);
    auto f = pool.submit([]() { return 6 * 7; });
    EXPECT_EQ(f.get(), 42);
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

TEST(ThreadPool, ExceptionPropagatesThroughFuture)
{
    ThreadPool pool(2);
    auto f = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(f.get(), std::runtime_error);
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
    auto f = pool.submit([]() { return 1; });
    EXPECT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
}

TEST(ThreadPool, ReentrantSubmissionDoesNotDeadlock)
{
    ThreadPool pool(2);
    // A task that itself fans a loop across the same pool: the
    // nesting rule (insideWorker -> inline) must keep this from
    // blocking a worker on other workers.
    auto f = pool.submit([&pool]() {
        EXPECT_TRUE(ThreadPool::insideWorker());
        std::atomic<int> inner{0};
        parallel::parallelFor(pool, 64,
                              [&inner](std::size_t) { ++inner; });
        return inner.load();
    });
    EXPECT_EQ(f.get(), 64);
}

TEST(ThreadPool, InsideWorkerFalseOnCaller)
{
    EXPECT_FALSE(ThreadPool::insideWorker());
    ThreadPool pool(1);
    auto f = pool.submit([]() { return ThreadPool::insideWorker(); });
    EXPECT_TRUE(f.get());
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

TEST(ParallelFor, ChunkedCoversRangeExactly)
{
    ThreadPool pool(2);
    // Awkward grain: n not divisible by grain.
    std::vector<int> hits(97, 0);
    parallel::parallelForChunked(
        pool, hits.size(), 10, [&](std::size_t b, std::size_t e) {
            for (std::size_t i = b; i < e; ++i)
                ++hits[i];
        });
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

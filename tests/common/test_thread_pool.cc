/** @file Unit tests for the worker thread pool. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/engine.hh"
#include "dnn/random.hh"

namespace
{

using nc::common::ThreadPool;

/**
 * Run @p body on its own thread and wait at most @p limit for it. A
 * pool that loses a wake-up never returns from parallelFor, and a
 * stuck thread cannot be joined, so on timeout the whole test binary
 * exits with a failure instead of hanging the suite.
 */
template <class F>
void
withWatchdog(std::chrono::seconds limit, const char *what, F &&body)
{
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    std::thread runner([&] {
        body();
        done.set_value();
    });
    if (finished.wait_for(limit) != std::future_status::ready) {
        std::fprintf(stderr, "%s: still running after %llds, the pool "
                     "is hung\n", what,
                     static_cast<long long>(limit.count()));
        std::_Exit(1);
    }
    runner.join();
}

TEST(ThreadPool, SizeIsAtLeastOne)
{
    ThreadPool p(0);
    EXPECT_GE(p.size(), 1u);
    ThreadPool p4(4);
    EXPECT_EQ(p4.size(), 4u);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 4u, 7u}) {
        ThreadPool pool(threads);
        constexpr size_t kN = 1000;
        std::vector<std::atomic<uint32_t>> hits(kN);
        pool.parallelFor(kN, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
    }
}

TEST(ThreadPool, EmptyAndSingleLoops)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallelFor(0, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 0);
    pool.parallelFor(1, [&](size_t i) {
        EXPECT_EQ(i, 0u);
        ++count;
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(100, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 99u * 100u / 2);
    }
}

TEST(ThreadPool, TinyJobsNeverLoseAWakeUp)
{
    // Jobs of 2..8 indices finish in microseconds, so a helper often
    // completes its share before the caller has sent every wake-up.
    // A pool that sends one notify_one per helper slot lets such a
    // helper re-enter its wait and absorb a later notify; a slot then
    // stays unclaimed and the join never returns (within a few
    // thousand jobs on a 4-core host).
    constexpr size_t kJobs = 40000;
    for (unsigned threads : {3u, 4u}) {
        withWatchdog(std::chrono::seconds(60), "tiny-job stress", [&] {
            ThreadPool pool(threads);
            std::atomic<uint64_t> sum{0};
            uint64_t want = 0;
            for (size_t job = 0; job < kJobs; ++job) {
                size_t n = 2 + job % 7;
                pool.parallelFor(n, [&](size_t i) {
                    sum.fetch_add(i + 1, std::memory_order_relaxed);
                });
                want += n * (n + 1) / 2;
            }
            EXPECT_EQ(sum.load(), want) << threads << " threads";
        });
    }
}

TEST(ThreadPool, OutsideCallersSharingOnePoolAllComplete)
{
    // Two outside threads drive one pool at once: whichever finds the
    // job slot taken runs its loop inline, and every index of every
    // job still runs exactly once.
    withWatchdog(std::chrono::seconds(60), "shared-pool stress", [] {
        ThreadPool pool(4);
        auto drive = [&pool](uint64_t &total) {
            for (size_t job = 0; job < 20000; ++job) {
                std::atomic<uint64_t> sum{0};
                size_t n = 1 + job % 16;
                pool.parallelFor(n, [&](size_t i) {
                    sum.fetch_add(i + 1, std::memory_order_relaxed);
                });
                EXPECT_EQ(sum.load(), n * (n + 1) / 2);
                total += sum.load();
            }
        };
        uint64_t a = 0, b = 0;
        std::thread other([&] { drive(b); });
        drive(a);
        other.join();
        EXPECT_EQ(a, b);
    });
}

TEST(ThreadPool, TwoModelsOfOneEngineCompileAndBatchSideBySide)
{
    // The public-API shape of the shared-slot rule: two models
    // compiled by one Engine, each compiled and then run batch after
    // batch from its own thread, all on the engine's one pool. Every
    // batch must equal the serial per-image run() loop of a 1-thread
    // engine, bit for bit.
    using namespace nc;
    auto netOf = [](const char *name, unsigned m) {
        dnn::Network net;
        net.name = name;
        net.stages.push_back(dnn::singleOpStage(
            "conv1", dnn::conv("conv1", 8, 8, 3, 3, 3, m)));
        net.stages.push_back(dnn::singleOpStage(
            "pool1", dnn::maxPool("pool1", 8, 8, m, 2, 2, 2)));
        net.stages.push_back(dnn::singleOpStage(
            "head", dnn::conv("head", 4, 4, m, 1, 1, 2)));
        return net;
    };
    const dnn::Network nets[2] = {netOf("left", 4), netOf("right", 6)};

    Rng rng(41);
    std::vector<dnn::QTensor> batch;
    for (int i = 0; i < 4; ++i)
        batch.push_back(dnn::randomQTensor(rng, 3, 8, 8));
    std::vector<std::vector<uint8_t>> golden[2];
    for (int k = 0; k < 2; ++k) {
        core::EngineOptions serial;
        serial.threads = 1;
        auto model = core::Engine(serial).compile(nets[k]);
        for (const auto &img : batch)
            golden[k].push_back(model.run(img).output.data());
    }

    core::EngineOptions shared;
    shared.threads = 4;
    core::Engine engine(shared);
    withWatchdog(std::chrono::seconds(120), "two-model stress", [&] {
        auto drive = [&](int k) {
            auto model = engine.compile(nets[k]);
            for (int round = 0; round < 6; ++round) {
                auto res = model.runBatch(batch);
                for (size_t i = 0; i < batch.size(); ++i)
                    EXPECT_EQ(res.outputs[i].data(), golden[k][i])
                        << nets[k].name << " round " << round
                        << " image " << i;
            }
        };
        std::thread right([&] { drive(1); });
        drive(0);
        right.join();
    });
}

TEST(ThreadPool, DisjointWritesNeedNoSynchronization)
{
    ThreadPool pool(4);
    std::vector<uint64_t> out(4096, 0);
    pool.parallelFor(out.size(), [&](size_t i) { out[i] = i * i; });
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, ValidEnvThreadCountIsHonored)
{
    setenv("NC_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);
    unsetenv("NC_THREADS");
}

TEST(ThreadPool, TaskExceptionPropagatesAndPoolSurvives)
{
    // A throwing task must neither deadlock the join nor kill the
    // process: the first exception surfaces on the caller and the
    // pool stays usable for the next job.
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        bool caught = false;
        try {
            pool.parallelFor(100, [](size_t i) {
                if (i == 37)
                    throw std::runtime_error("task 37 failed");
            });
        } catch (const std::runtime_error &e) {
            caught = true;
            EXPECT_STREQ(e.what(), "task 37 failed");
        }
        EXPECT_TRUE(caught) << threads << " threads";

        // The same pool immediately runs a full clean job.
        std::atomic<uint64_t> sum{0};
        pool.parallelFor(100, [&](size_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
        });
        EXPECT_EQ(sum.load(), 99u * 100u / 2) << threads
                                              << " threads";
    }
}

TEST(ThreadPool, NestedParallelForExceptionPropagates)
{
    // Nested parallelFor runs inline in the calling task, so an
    // exception from the inner loop unwinds through the outer task
    // and still reaches the outermost caller exactly once.
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(8,
                                  [&](size_t i) {
                                      pool.parallelFor(4, [&](size_t j) {
                                          if (i == 3 && j == 2)
                                              throw std::runtime_error(
                                                  "inner failure");
                                      });
                                  }),
                 std::runtime_error);

    std::atomic<int> count{0};
    pool.parallelFor(16, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, TaskIdsAreZeroOutsideAndUniquePerTask)
{
    EXPECT_EQ(nc::common::currentTaskId(), 0u);
    ThreadPool pool(4);
    std::mutex mtx;
    std::set<uint64_t> ids;
    pool.parallelFor(64, [&](size_t) {
        uint64_t id = nc::common::currentTaskId();
        std::lock_guard<std::mutex> lk(mtx);
        ids.insert(id);
    });
    EXPECT_EQ(nc::common::currentTaskId(), 0u);
    if (nc::kDebugAsserts) {
        // Debug builds: every task saw its own nonzero identity.
        EXPECT_EQ(ids.size(), 64u);
        EXPECT_EQ(ids.count(0), 0u);
    } else {
        // Release: the identity hook compiles out to the 0 constant.
        EXPECT_EQ(ids.size(), 1u);
        EXPECT_EQ(ids.count(0), 1u);
    }
}

using ThreadPoolDeath = ::testing::Test;

TEST(ThreadPoolDeath, GarbageEnvThreadCountsAreFatal)
{
    // A misread NC_THREADS silently misconfigures every pool in the
    // process, so garbage must die loudly instead of falling back.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    struct Case
    {
        const char *value;
        const char *expect;
    } cases[] = {
        {"abc", "not an integer"},
        {"3abc", "not an integer"},      // trailing junk
        {"", "not an integer"},
        {" 4", "not an integer"},        // no whitespace tolerated
        {"0", "positive thread count"},  // zero after parse
        {"-2", "positive thread count"}, // negative
        {"99999999", "absurdly large"},
        {"99999999999999999999", "absurdly large"}, // ERANGE
    };
    for (const auto &[value, expect] : cases) {
        setenv("NC_THREADS", value, 1);
        EXPECT_DEATH((void)ThreadPool::defaultThreads(), expect)
            << "NC_THREADS='" << value << "'";
        // The pool constructor takes the same path for size 0.
        EXPECT_DEATH(ThreadPool(0), "NC_THREADS")
            << "NC_THREADS='" << value << "'";
    }
    unsetenv("NC_THREADS");
}

} // namespace

/**
 * @file
 * Tests for the run-level ParallelFor, the one host-thread rule
 * (ResolveChannelJobs) and the bench harness's determinism contract:
 * results and emitted JSON are bit-identical for every --jobs value
 * (DESIGN.md "Parallel runner").
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_common.hh"
#include "common/json.hh"
#include "sim/runner.hh"

namespace parbs {
namespace {

TEST(ParallelFor, RunsEveryTaskExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        constexpr std::size_t kTasks = 100;
        std::vector<std::atomic<int>> hits(kTasks);
        ParallelFor(jobs, kTasks, [&](std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < kTasks; ++i) {
            EXPECT_EQ(hits[i].load(), 1) << "jobs " << jobs << " task " << i;
        }
    }
}

TEST(ParallelFor, ResultsLandAtSubmissionIndex)
{
    auto compute = [](unsigned jobs) {
        std::vector<std::uint64_t> out(257);
        ParallelFor(jobs, out.size(), [&](std::size_t i) {
            out[i] = i * i + 7;
        });
        return out;
    };
    EXPECT_EQ(compute(1), compute(2));
    EXPECT_EQ(compute(1), compute(3));
    EXPECT_EQ(compute(1), compute(8));
}

TEST(ParallelFor, RepeatedCallsAndEmptyRange)
{
    std::atomic<int> total{0};
    for (int batch = 0; batch < 5; ++batch) {
        ParallelFor(3, 10, [&](std::size_t) { total += 1; });
    }
    EXPECT_EQ(total.load(), 50);
    // An empty range runs nothing, serially or not.
    ParallelFor(1, 0, [&](std::size_t) { total += 1; });
    ParallelFor(4, 0, [&](std::size_t) { total += 1; });
    EXPECT_EQ(total.load(), 50);
}

TEST(ParallelFor, SingleJobRunsInlineInOrder)
{
    for (unsigned jobs : {0u, 1u}) {
        std::vector<std::size_t> order;
        std::vector<std::thread::id> threads;
        ParallelFor(jobs, 20, [&](std::size_t i) {
            order.push_back(i);
            threads.push_back(std::this_thread::get_id());
        });
        ASSERT_EQ(order.size(), 20u);
        for (std::size_t i = 0; i < order.size(); ++i) {
            EXPECT_EQ(order[i], i);
            EXPECT_EQ(threads[i], std::this_thread::get_id());
        }
    }
}

TEST(ParallelFor, LowestFailingIndexRethrownAfterAllTasks)
{
    for (unsigned jobs : {1u, 2u, 3u, 8u}) {
        std::atomic<int> ran{0};
        try {
            ParallelFor(jobs, 20, [&ran](std::size_t i) {
                ran += 1;
                if (i % 7 == 3) {
                    // The lowest failing index throws last, so a "first
                    // observed" rule would report 10 or 17 instead.
                    if (i == 3) {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                    }
                    throw std::runtime_error(std::to_string(i));
                }
            });
            ADD_FAILURE() << "jobs " << jobs << ": nothing was rethrown";
        } catch (const std::runtime_error& error) {
            EXPECT_STREQ(error.what(), "3") << "jobs " << jobs;
        }
        // A failing task cancels none of the others.
        EXPECT_EQ(ran.load(), 20) << "jobs " << jobs;
    }
}

TEST(ParallelFor, OtherParticipantsDrainWhileOneTaskBlocks)
{
    // Task 0 holds its participant until every other task has run, so the
    // batch finishes in time only if the remaining participants take the
    // rest from the shared cursor.
    constexpr std::size_t kTasks = 16;
    std::atomic<std::size_t> others{0};
    bool drained = false;
    ParallelFor(4, kTasks, [&](std::size_t i) {
        if (i != 0) {
            others += 1;
            return;
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (others.load() != kTasks - 1 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        drained = others.load() == kTasks - 1;
    });
    EXPECT_TRUE(drained);
    EXPECT_EQ(others.load(), kTasks - 1);
}

TEST(ResolveChannelJobs, HardwareJobsIsAtLeastOne)
{
    EXPECT_GE(HardwareJobs(), 1u);
}

TEST(ResolveChannelJobs, ClampsToChannelsAndHardware)
{
    // The baseline 4-core system has one channel: nothing to shard.
    EXPECT_EQ(
        ResolveChannelJobs(4, SystemConfig::Baseline(4).geometry.channels),
        1u);
    // The 16-core baseline has four channels.
    EXPECT_EQ(
        ResolveChannelJobs(8, SystemConfig::Baseline(16).geometry.channels),
        4u);
    EXPECT_EQ(ResolveChannelJobs(3, 8), 3u);
    EXPECT_EQ(ResolveChannelJobs(1, 8), 1u);
    // Auto is one per channel, but never more than the hardware threads.
    for (std::uint32_t channels : {1u, 2u, 4u, 8u, 16u, 1024u}) {
        const unsigned jobs = ResolveChannelJobs(0, channels);
        EXPECT_GE(jobs, 1u) << channels;
        EXPECT_LE(jobs, HardwareJobs()) << channels;
        EXPECT_EQ(jobs, std::min(channels, HardwareJobs())) << channels;
    }
}

/** argv for a bench Session: the program name followed by @p args. */
struct Argv {
    explicit Argv(std::vector<std::string> args) : strings(std::move(args))
    {
        strings.insert(strings.begin(), "runner_test");
        for (std::string& arg : strings) {
            pointers.push_back(arg.data());
        }
    }
    int argc() const { return static_cast<int>(pointers.size()); }
    char** argv() { return pointers.data(); }

    std::vector<std::string> strings;
    std::vector<char*> pointers;
};

/** Runs a small 4-core workload set through a full bench Session. */
std::string
RunSuiteJson(unsigned jobs, const std::string& path,
             unsigned channel_jobs = 1)
{
    Argv args({"--cycles", "100000", "--jobs", std::to_string(jobs),
               "--channel-jobs", std::to_string(channel_jobs), "--json",
               path});
    {
        bench::Session session(args.argc(), args.argv(), "Runner test",
                               "determinism check");
        ExperimentRunner runner = bench::MakeRunner(session.options(), 4);
        SchedulerConfig frfcfs;
        frfcfs.kind = SchedulerKind::kFrFcfs;
        SchedulerConfig parbs_config;
        parbs_config.kind = SchedulerKind::kParBs;
        const auto matrix =
            bench::RunMatrix(session, runner, {frfcfs, parbs_config},
                             RandomMixes(2, 4, /*seed=*/1));
        for (const auto& runs : matrix) {
            for (const SharedRun& run : runs) {
                session.RecordRun("determinism", run);
            }
        }
    } // ~Session writes the JSON file.

    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(RunnerDeterminism, JsonRunSubtreeIsByteIdenticalAcrossJobs)
{
    const std::string dir = ::testing::TempDir();
    const std::string serial = RunSuiteJson(1, dir + "/runner_j1.json");
    const std::string parallel = RunSuiteJson(8, dir + "/runner_j8.json");
    const std::string composed =
        RunSuiteJson(4, dir + "/runner_j4c4.json", /*channel_jobs=*/4);
    ASSERT_FALSE(serial.empty());
    ASSERT_FALSE(parallel.empty());
    ASSERT_FALSE(composed.empty());

    // The files differ only in the volatile "env" subtree (wall clock,
    // jobs); the deterministic "run" subtree must match byte-for-byte.
    const json::Value a = json::Value::Parse(serial);
    const json::Value b = json::Value::Parse(parallel);
    const json::Value c = json::Value::Parse(composed);
    ASSERT_NE(a.Find("run"), nullptr);
    ASSERT_NE(b.Find("run"), nullptr);
    ASSERT_NE(c.Find("run"), nullptr);
    EXPECT_EQ(a.Find("run")->Dump(2), b.Find("run")->Dump(2));
    EXPECT_EQ(a.Find("run")->Dump(2), c.Find("run")->Dump(2));
    // The 4-core systems resolve to the serial engine, so the composed
    // run keeps (and reports) all four run-level jobs.
    EXPECT_EQ(c.Find("env")->Find("jobs")->AsNumber(), 4.0);
}

TEST(RunnerJobs, BatchJobsDivideByTheResolvedTeam)
{
    Argv args({"--jobs", "4", "--channel-jobs", "4"});
    bench::Session session(args.argc(), args.argv(), "Runner test",
                           "batch jobs");
    // A 4-core system has one channel, so --channel-jobs 4 resolves to the
    // serial engine and the batch keeps all four run-level jobs.
    const ExperimentRunner four = bench::MakeRunner(session.options(), 4);
    EXPECT_EQ(bench::RunnerTeam(four), 1u);
    EXPECT_EQ(session.BatchJobs(bench::RunnerTeam(four)), 4u);
    // Teams of 2 and 4 threads leave 2 and 1 run-level jobs; a team
    // larger than --jobs still runs one system at a time.
    EXPECT_EQ(session.BatchJobs(2), 2u);
    EXPECT_EQ(session.BatchJobs(4), 1u);
    EXPECT_EQ(session.BatchJobs(8), 1u);
}

} // namespace
} // namespace parbs

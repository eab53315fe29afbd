/**
 * @file
 * Engine flight-recorder tests (DESIGN.md §5h).  The profiler's contract
 * splits in two: the deterministic counters (window schedule, arrival
 * imbalance, occupancy, pick-memo rates) must be byte-identical across
 * every engine shape — the serial loop and channel shards of any size —
 * while the wall-clock phase timings are volatile and live only on the
 * env side.  Turning the profiler on must never perturb the simulation
 * itself, and the engine state dump must describe whichever engine is
 * running.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"
#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

std::vector<std::unique_ptr<TraceSource>>
SyntheticTraces(const SystemConfig& config, std::uint32_t count,
                double mpki = 20.0)
{
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < count; ++t) {
        SyntheticParams params;
        params.mpki = mpki;
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            params, mapper, t, count, 1000 + t));
    }
    return traces;
}

SystemConfig
ProfiledConfig(std::uint32_t cores, const SchedulerConfig& scheduler,
               unsigned channel_jobs)
{
    SystemConfig config = SystemConfig::Baseline(cores);
    config.scheduler = scheduler;
    config.channel_jobs = channel_jobs;
    config.observability.engine_profile = true;
    return config;
}

struct ProfiledArtifacts {
    std::string stats;
    std::string engine_run; ///< EngineRunJson().Dump(2) — deterministic.
    CpuCycle stop = 0;
    bool sharded = false;
};

ProfiledArtifacts
RunProfiled(const SystemConfig& config, std::uint32_t cores,
            CpuCycle cycles)
{
    System system(config, SyntheticTraces(config, cores));
    system.Run(cycles);
    ProfiledArtifacts out;
    out.stop = system.now();
    out.sharded = system.sharded();
    std::ostringstream stats;
    system.DumpStats(stats);
    out.stats = stats.str();
    out.engine_run = system.EngineRunJson().Dump(2);
    return out;
}

class EngineCounterDeterminism
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineCounterDeterminism, ByteIdenticalAcrossEngineShapes)
{
    const SchedulerConfig scheduler = ComparisonSchedulers()[GetParam()];
    constexpr std::uint32_t kCores = 64; // Baseline(64) has 16 channels.
    constexpr CpuCycle kCycles = 25000;

    // Serial reference: channel_jobs 1 keeps the serial cycle loop, which
    // replays the sharded window schedule purely for accounting.
    const ProfiledArtifacts serial = RunProfiled(
        ProfiledConfig(kCores, scheduler, 1), kCores, kCycles);
    ASSERT_FALSE(serial.sharded);

    // Channel shards at two crew sizes: every shape must reproduce the
    // serial counters byte for byte.
    for (const unsigned jobs : {4u, 8u}) {
        const ProfiledArtifacts sharded = RunProfiled(
            ProfiledConfig(kCores, scheduler, jobs), kCores, kCycles);
        ASSERT_TRUE(sharded.sharded) << "jobs=" << jobs;
        EXPECT_EQ(serial.stop, sharded.stop) << "jobs=" << jobs;
        EXPECT_EQ(serial.stats, sharded.stats) << "jobs=" << jobs;
        EXPECT_EQ(serial.engine_run, sharded.engine_run)
            << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, EngineCounterDeterminism,
    ::testing::Range<std::size_t>(0, 6),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        std::string name =
            SchedulerConfigName(ComparisonSchedulers()[info.param]);
        for (char& c : name) {
            if (c == '-') {
                c = '_';
            }
        }
        return name;
    });

TEST(EngineProfiler, ProfilerOnNeverPerturbsTheSimulation)
{
    // The profiler must be observation-free: the same run with the flight
    // recorder on and off produces the same stats bytes, serial and
    // sharded.
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    constexpr CpuCycle kCycles = 60000;
    auto stats_of = [&](unsigned channel_jobs, bool profile) {
        SystemConfig config = SystemConfig::Baseline(16);
        config.scheduler = scheduler;
        config.channel_jobs = channel_jobs;
        config.observability.engine_profile = profile;
        System system(config, SyntheticTraces(config, 16));
        system.Run(kCycles);
        std::ostringstream stats;
        system.DumpStats(stats);
        return stats.str();
    };
    const std::string baseline = stats_of(1, false);
    EXPECT_EQ(baseline, stats_of(1, true));
    EXPECT_EQ(baseline, stats_of(4, false));
    EXPECT_EQ(baseline, stats_of(4, true));
}

TEST(EngineProfiler, DeterministicJsonCarriesTheWindowSchedule)
{
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kFrFcfs;
    SystemConfig config = ProfiledConfig(16, scheduler, 4);
    System system(config, SyntheticTraces(config, 16));
    system.Run(50000);
    ASSERT_NE(system.engine_profiler(), nullptr);

    const json::Value run = system.EngineRunJson();
    const json::Value* windows = run.Find("windows");
    ASSERT_NE(windows, nullptr);
    EXPECT_GT(windows->AsNumber(), 0.0);
    const json::Value* arrivals = run.Find("arrivals");
    ASSERT_NE(arrivals, nullptr);
    EXPECT_GT(arrivals->AsNumber(), 0.0);
    ASSERT_NE(run.Find("window_ticks"), nullptr);
    ASSERT_NE(run.Find("arrival_imbalance"), nullptr);
    ASSERT_NE(run.Find("occupancy"), nullptr);
    const json::Value* memo = run.Find("pick_memo");
    ASSERT_NE(memo, nullptr);
    ASSERT_NE(memo->Find("hits"), nullptr);
    ASSERT_NE(memo->Find("misses"), nullptr);
    ASSERT_NE(memo->Find("invalidations"), nullptr);
    const json::Value* channels = run.Find("channels");
    ASSERT_NE(channels, nullptr);
    EXPECT_EQ(channels->items().size(), config.geometry.channels);

    const json::Value env = system.EngineEnvJson();
    const json::Value* clock = env.Find("clock");
    ASSERT_NE(clock, nullptr);
    ASSERT_NE(clock->Find("source"), nullptr);
    const json::Value* participants = env.Find("participants");
    ASSERT_NE(participants, nullptr);
    EXPECT_EQ(participants->AsNumber(), 4.0);
    const json::Value* hiwater = env.Find("pool_hiwater");
    ASSERT_NE(hiwater, nullptr);
    EXPECT_EQ(hiwater->items().size(), config.geometry.channels);
}

TEST(EngineProfiler, TraceGainsEngineLanesOnlyWhenProfiled)
{
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    auto trace_of = [&](bool profile) {
        SystemConfig config = SystemConfig::Baseline(16);
        config.scheduler = scheduler;
        config.channel_jobs = 4;
        config.observability.trace = true;
        config.observability.sample_interval = 512;
        config.observability.engine_profile = profile;
        System system(config, SyntheticTraces(config, 16));
        system.Run(30000);
        std::ostringstream out;
        system.WriteTrace(out, "engine-lanes");
        return out.str();
    };
    const std::string plain = trace_of(false);
    EXPECT_EQ(plain.find("\"engine_profile\""), std::string::npos);
    EXPECT_EQ(plain.find("\"cat\": \"engine\""), std::string::npos);
    const std::string profiled = trace_of(true);
    EXPECT_NE(profiled.find("\"engine_profile\": true"),
              std::string::npos);
    EXPECT_NE(profiled.find("\"cat\": \"engine\""), std::string::npos);
    EXPECT_NE(profiled.find("participant 0 (coordinator)"),
              std::string::npos);
}

TEST(EngineProfiler, EngineStateDumpDescribesBothEngines)
{
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kFrFcfs;
    {
        SystemConfig config = ProfiledConfig(16, scheduler, 4);
        System system(config, SyntheticTraces(config, 16));
        system.Run(20000);
        const std::string dump = system.EngineStateDump();
        EXPECT_NE(dump.find("---- engine state ----"), std::string::npos);
        EXPECT_NE(dump.find("engine=sharded"), std::string::npos);
        EXPECT_NE(dump.find("shard[0]"), std::string::npos);
        EXPECT_NE(dump.find("profiler_phase="), std::string::npos);
    }
    {
        SystemConfig config = SystemConfig::Baseline(4);
        config.scheduler = scheduler;
        config.channel_jobs = 1;
        System system(config, SyntheticTraces(config, 4));
        system.Run(20000);
        const std::string dump = system.EngineStateDump();
        EXPECT_NE(dump.find("engine=serial"), std::string::npos);
    }
}

} // namespace
} // namespace parbs

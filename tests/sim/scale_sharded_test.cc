/**
 * @file
 * Scale-out equivalence tests (DESIGN.md §5g): at 64+ cores the sharded
 * engine's pre-published read notifications and event-driven core sweep
 * run on top of the channel shards, and the whole stack must stay
 * bit-identical to the serial loop — same stats bytes, same trace bytes,
 * same stop cycle — for every scheduler and channel-crew size.  Also
 * covers the generalized baseline geometries (128/256 cores scale by
 * ranks) and the sampled PARBS_CHECK selection cross-check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/runner.hh"
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

struct Artifacts {
    std::string stats;
    std::string trace;
    CpuCycle stop = 0;
    bool sharded = false;
};

Artifacts
RunSystem(const SystemConfig& config, std::uint32_t cores, CpuCycle cycles)
{
    System system(config, SyntheticTraces(config, cores));
    system.Run(cycles);
    Artifacts out;
    out.stop = system.now();
    out.sharded = system.sharded();
    std::ostringstream stats;
    system.DumpStats(stats);
    out.stats = stats.str();
    if (system.observability() != nullptr) {
        std::ostringstream trace;
        system.WriteTrace(trace, "scale-equivalence");
        out.trace = trace.str();
    }
    return out;
}

SystemConfig
TracedConfig(std::uint32_t cores, const SchedulerConfig& scheduler,
             unsigned channel_jobs)
{
    SystemConfig config = SystemConfig::Baseline(cores);
    config.scheduler = scheduler;
    config.channel_jobs = channel_jobs;
    config.observability.trace = true;
    config.observability.sample_interval = 512;
    return config;
}

class ScaleShardedEquivalence
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScaleShardedEquivalence, BitIdenticalAt64Cores)
{
    const SchedulerConfig scheduler = ComparisonSchedulers()[GetParam()];
    constexpr std::uint32_t kCores = 64; // Baseline(64) has 16 channels.
    constexpr CpuCycle kCycles = 25000;

    const Artifacts serial =
        RunSystem(TracedConfig(kCores, scheduler, 1), kCores, kCycles);
    ASSERT_FALSE(serial.sharded);
    for (const unsigned jobs : {4u, 8u}) {
        const Artifacts sharded = RunSystem(
            TracedConfig(kCores, scheduler, jobs), kCores, kCycles);
        ASSERT_TRUE(sharded.sharded) << "jobs=" << jobs;
        EXPECT_EQ(serial.stop, sharded.stop) << "jobs=" << jobs;
        EXPECT_EQ(serial.stats, sharded.stats) << "jobs=" << jobs;
        EXPECT_EQ(serial.trace, sharded.trace) << "jobs=" << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, ScaleShardedEquivalence,
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

TEST(ScaleSharded, AutoChannelJobsNeverExceedHardwareThreads)
{
    // channel_jobs 0 asks for one worker per channel, but a team larger
    // than the machine only spins against itself: the auto shape is
    // clamped to the hardware threads (and to the channel count).
    for (const std::uint32_t cores : {16u, 64u, 256u}) {
        SystemConfig config = SystemConfig::Baseline(cores);
        config.channel_jobs = 0;
        System system(config, SyntheticTraces(config, 4));
        EXPECT_LE(system.channel_jobs(), HardwareJobs()) << cores;
        EXPECT_EQ(system.channel_jobs(),
                  system.sharded()
                      ? std::min(config.geometry.channels, HardwareJobs())
                      : 1u)
            << cores;
    }
}

TEST(ScaleSharded, RankScaledBaselineStaysIdenticalAt128Cores)
{
    // Baseline(128) saturates the channel cap and doubles the ranks; the
    // sharded engine must be exact on rank-scaled geometries too.
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    constexpr CpuCycle kCycles = 8000;
    auto config = [&](unsigned jobs) {
        SystemConfig out = SystemConfig::Baseline(128);
        out.scheduler = scheduler;
        out.channel_jobs = jobs;
        return out;
    };
    const Artifacts serial = RunSystem(config(1), 128, kCycles);
    const Artifacts sharded = RunSystem(config(8), 128, kCycles);
    ASSERT_TRUE(sharded.sharded);
    EXPECT_EQ(serial.stop, sharded.stop);
    EXPECT_EQ(serial.stats, sharded.stats);
}

TEST(ScaleSharded, BaselineGeometryScalesByRanksBeyond64Cores)
{
    const SystemConfig b64 = SystemConfig::Baseline(64);
    EXPECT_EQ(b64.geometry.channels, 16u);
    EXPECT_EQ(b64.geometry.ranks_per_channel, 1u);
    const SystemConfig b128 = SystemConfig::Baseline(128);
    EXPECT_EQ(b128.geometry.channels, 16u);
    EXPECT_EQ(b128.geometry.ranks_per_channel, 2u);
    const SystemConfig b256 = SystemConfig::Baseline(256);
    EXPECT_EQ(b256.geometry.channels, 16u);
    EXPECT_EQ(b256.geometry.ranks_per_channel, 4u);
    const SystemConfig wide = SystemConfig::Baseline(64, 8);
    EXPECT_EQ(wide.geometry.channels, 8u);
    EXPECT_EQ(wide.geometry.ranks_per_channel, 2u);
    // All of them must pass full validation (the old cores/4 rule pushed
    // 128 cores to an invalid 32-channel geometry).
    b64.Validate();
    b128.Validate();
    b256.Validate();
    wide.Validate();
    EXPECT_THROW(SystemConfig::Baseline(64, 3), ConfigError);
    EXPECT_THROW(SystemConfig::Baseline(64, 32), ConfigError);
}

TEST(ScaleSharded, SampledSelectionVerifyNeverChangesResults)
{
    // The sampled cross-check must be observation-free: period 61 and the
    // exhaustive period 1 run the same simulation byte for byte (sampling
    // only decides how often the redundant reference path re-runs).
    SchedulerConfig scheduler;
    scheduler.kind = SchedulerKind::kParBs;
    auto config = [&](std::uint32_t period) {
        SystemConfig out = SystemConfig::Baseline(16);
        out.scheduler = scheduler;
        out.controller.verify_indexed_selection = true;
        out.controller.verify_sample_period = period;
        return out;
    };
    const Artifacts exhaustive = RunSystem(config(1), 16, 40000);
    const Artifacts sampled = RunSystem(config(61), 16, 40000);
    EXPECT_EQ(exhaustive.stop, sampled.stop);
    EXPECT_EQ(exhaustive.stats, sampled.stats);
}

} // namespace
} // namespace parbs

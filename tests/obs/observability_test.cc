/**
 * @file
 * Tests for the observability layer: the event tracer ring, the scheduler
 * observer hook, trace export (Chrome trace-event JSON), the interval
 * sampler, the latency anatomy, and the determinism of traced runs.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/assert.hh"
#include "common/json.hh"
#include "obs/observability.hh"
#include "sched/factory.hh"
#include "sim/runner.hh"
#include "sim/system.hh"
#include "test_util.hh"
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
TracedConfig(SchedulerKind kind, DramCycle sample_interval = 256)
{
    SystemConfig config = SystemConfig::Baseline(4);
    config.scheduler.kind = kind;
    config.observability.trace = true;
    config.observability.sample_interval = sample_interval;
    return config;
}

std::set<obs::EventKind>
KindsOf(const obs::Tracer& tracer)
{
    std::set<obs::EventKind> kinds;
    for (const obs::TraceEvent& event : tracer.Snapshot()) {
        kinds.insert(event.kind);
    }
    return kinds;
}

TEST(Tracer, RingIsBoundedAndKeepsNewestInOrder)
{
    obs::Tracer tracer(4);
    for (DramCycle cycle = 0; cycle < 6; ++cycle) {
        tracer.Emit({cycle, obs::EventKind::kCommand, 0, 0, 0, 0, 0});
    }
    EXPECT_EQ(tracer.capacity(), 4u);
    EXPECT_EQ(tracer.size(), 4u);
    EXPECT_EQ(tracer.dropped(), 2u);
    EXPECT_EQ(tracer.latest_cycle(), 5u);
    const std::vector<obs::TraceEvent> events = tracer.Snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].cycle, 2 + i) << "slot " << i;
    }
}

TEST(Tracer, FormatTailFiltersByThread)
{
    obs::Tracer tracer(16);
    tracer.Emit({1, obs::EventKind::kRequestArrive, 0, 0, 3, 10, 0});
    tracer.Emit({2, obs::EventKind::kRequestArrive, 0, 1, 4, 11, 0});
    const std::string tail =
        tracer.FormatTail(0, obs::kNoFlatBank, 16);
    EXPECT_NE(tail.find("recent trace events"), std::string::npos);
    EXPECT_NE(tail.find("thread=0"), std::string::npos);
    EXPECT_EQ(tail.find("thread=1"), std::string::npos);
    // The wildcard filter shows everything.
    const std::string all =
        tracer.FormatTail(kInvalidThread, obs::kNoFlatBank, 16);
    EXPECT_NE(all.find("thread=1"), std::string::npos);
}

TEST(ObservabilityConfig, ValidateRejectsZeroRing)
{
    obs::ObservabilityConfig config;
    config.trace = true;
    config.trace_ring_capacity = 0;
    EXPECT_THROW(config.Validate(), ConfigError);
    config.trace = false;
    EXPECT_NO_THROW(config.Validate());
}

TEST(SchedulerObserver, KnobEventsFireForEveryScheduler)
{
    // The observer hook lives in the Scheduler base class, so every policy
    // emits priority/weight events without per-scheduler forks.
    for (SchedulerKind kind :
         {SchedulerKind::kFcfs, SchedulerKind::kFrFcfs, SchedulerKind::kNfq,
          SchedulerKind::kStfm, SchedulerKind::kParBs}) {
        SchedulerConfig config;
        config.kind = kind;
        // The harness's controller attaches the scheduler to its queues,
        // which the knob setters require.
        test::ControllerHarness harness(MakeScheduler(config));
        obs::Tracer tracer(16);
        obs::SchedulerTraceAdapter adapter(tracer, 0);
        Scheduler& scheduler = harness.controller().scheduler();
        scheduler.SetObserver(&adapter);
        scheduler.SetThreadPriority(0, kHighestPriority);
        scheduler.SetThreadWeight(1, 2.0);
        const std::set<obs::EventKind> kinds = KindsOf(tracer);
        EXPECT_TRUE(kinds.count(obs::EventKind::kPriorityChange))
            << SchedulerKindName(kind);
        EXPECT_TRUE(kinds.count(obs::EventKind::kWeightChange))
            << SchedulerKindName(kind);
    }
}

TEST(Observability, TracedParBsRunEmitsFullEventSet)
{
    SystemConfig config = TracedConfig(SchedulerKind::kParBs);
    System system(config, SyntheticTraces(config, 4));
    system.Run(100000);

    ASSERT_NE(system.observability(), nullptr);
    const obs::Observability& obs = *system.observability();
    const std::set<obs::EventKind> kinds = KindsOf(obs.tracer());
    EXPECT_TRUE(kinds.count(obs::EventKind::kRequestArrive));
    EXPECT_TRUE(kinds.count(obs::EventKind::kRequestFirstIssue));
    EXPECT_TRUE(kinds.count(obs::EventKind::kRequestBurst));
    EXPECT_TRUE(kinds.count(obs::EventKind::kRequestRetire));
    EXPECT_TRUE(kinds.count(obs::EventKind::kCommand));
    EXPECT_TRUE(kinds.count(obs::EventKind::kBatchFormed));
    EXPECT_TRUE(kinds.count(obs::EventKind::kBatchComplete));
    EXPECT_TRUE(kinds.count(obs::EventKind::kThreadRank));
}

TEST(Observability, MarkCapSkipEventsEmittedUnderTightCap)
{
    SystemConfig config = TracedConfig(SchedulerKind::kParBs);
    config.scheduler.parbs.marking_cap = 1;
    System system(config, SyntheticTraces(config, 4, /*mpki=*/50.0));
    system.Run(100000);
    EXPECT_TRUE(KindsOf(system.observability()->tracer())
                    .count(obs::EventKind::kMarkCapSkip));
}

TEST(Observability, LatencyAnatomyComponentsSumToTotal)
{
    SystemConfig config = TracedConfig(SchedulerKind::kParBs);
    System system(config, SyntheticTraces(config, 4));
    system.Run(100000);

    const obs::LatencyAnatomy& latency = system.observability()->latency();
    EXPECT_GT(latency.recorded_reads(), 0u);
    for (ThreadId t = 0; t < 4; ++t) {
        const std::uint64_t count = latency.Total(t).count();
        EXPECT_GT(count, 0u) << "thread " << t;
        EXPECT_EQ(latency.Queueing(t).count(), count);
        EXPECT_EQ(latency.Service(t).count(), count);
        EXPECT_EQ(latency.Bus(t).count(), count);
        // queueing + service + bus == total holds per read by construction,
        // so it holds for the sums, and the counts match, so the means add.
        EXPECT_NEAR(latency.Queueing(t).Mean() + latency.Service(t).Mean() +
                        latency.Bus(t).Mean(),
                    latency.Total(t).Mean(), 1e-9)
            << "thread " << t;
    }
}

TEST(Observability, SamplerCadenceAndEdgeCases)
{
    // Normal cadence: one row per interval, stamped at the interval mark.
    {
        SystemConfig config = TracedConfig(SchedulerKind::kParBs, 256);
        System system(config, SyntheticTraces(config, 4));
        system.Run(50000); // 5000 DRAM cycles.
        const auto& samples = system.observability()->sampler().samples();
        ASSERT_GT(samples.size(), 10u);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            EXPECT_EQ(samples[i].cycle, (i + 1) * 256) << "row " << i;
            ASSERT_EQ(samples[i].controllers.size(), 1u);
            EXPECT_EQ(samples[i].controllers[0].bank_queued.size(), 8u);
            EXPECT_EQ(samples[i].controllers[0].thread_blp.size(), 4u);
        }
    }
    // Interval 0 disables the time series.
    {
        SystemConfig config = TracedConfig(SchedulerKind::kParBs, 0);
        System system(config, SyntheticTraces(config, 4));
        system.Run(50000);
        EXPECT_TRUE(system.observability()->sampler().samples().empty());
    }
    // An interval longer than the run yields an empty series.
    {
        SystemConfig config = TracedConfig(SchedulerKind::kParBs, 1u << 30);
        System system(config, SyntheticTraces(config, 4));
        system.Run(50000);
        EXPECT_TRUE(system.observability()->sampler().samples().empty());
    }
}

TEST(Observability, DisabledLeavesNoObjectAndIdenticalResults)
{
    auto measure = [](bool traced) {
        SystemConfig config = SystemConfig::Baseline(4);
        config.scheduler.kind = SchedulerKind::kParBs;
        config.observability.trace = traced;
        config.observability.sample_interval = traced ? 256 : 0;
        System system(config, SyntheticTraces(config, 4));
        system.Run(50000);
        EXPECT_EQ(system.observability() != nullptr, traced);
        std::vector<std::uint64_t> out;
        for (ThreadId t = 0; t < 4; ++t) {
            const ThreadMeasurement m = system.Measure(t);
            out.push_back(m.requests);
            out.push_back(m.instructions);
            out.push_back(m.worst_case_latency);
        }
        return out;
    };
    // Observability is pure observation: the simulation is cycle-for-cycle
    // identical with and without it.
    EXPECT_EQ(measure(true), measure(false));
}

TEST(Observability, TraceJsonRoundTripsThroughParser)
{
    SystemConfig config = TracedConfig(SchedulerKind::kParBs);
    System system(config, SyntheticTraces(config, 4));
    system.Run(50000);

    std::ostringstream out;
    system.WriteTrace(out, "round-trip");
    const std::string text = out.str();
    json::Value parsed;
    ASSERT_NO_THROW(parsed = json::Value::Parse(text));

    const json::Value* events = parsed.Find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_GT(events->items().size(), 100u);
    EXPECT_EQ(parsed.Find("otherData")->Find("workload")->AsString(),
              "round-trip");
    ASSERT_NE(parsed.Find("samples"), nullptr);
    ASSERT_NE(parsed.Find("latency"), nullptr);

    // Shortest-round-trip number formatting makes parse(dump) a fixpoint:
    // re-serializing the parsed document reproduces the file byte-for-byte.
    EXPECT_EQ(parsed.Dump(2) + "\n", text);
}

TEST(Observability, TraceBytesIdenticalAcrossJobCounts)
{
    // The tracer inherits the runner determinism contract: running four
    // traced systems on one worker or four must produce the same bytes.
    auto produce = [](unsigned jobs) {
        std::vector<std::string> traces(4);
        ParallelFor(jobs, 4, [&traces](std::size_t index) {
            SystemConfig config = TracedConfig(SchedulerKind::kParBs);
            config.seed = 1 + index;
            System system(config, SyntheticTraces(config, 4));
            system.Run(30000);
            std::ostringstream out;
            system.WriteTrace(out, "jobs-" + std::to_string(index));
            traces[index] = out.str();
        });
        return traces;
    };
    EXPECT_EQ(produce(1), produce(4));
}

} // namespace
} // namespace parbs

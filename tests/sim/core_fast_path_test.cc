/**
 * @file
 * Exactness tests for the event-driven core sweep (DESIGN.md §5d): skipping
 * the cycles of stalled cores, and whole cycles in which no core is due,
 * must never change simulated behavior.  Every scenario runs with
 * verify_core_fast_path — the per-cycle reference, in which every core
 * ticks every cycle and a core the sweep had asleep must change nothing
 * but its cycle and stall counters — and without it, on the serial loop
 * and on channel shards, for every scheduler of the lineup; stats and
 * trace bytes must match the serial reference.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/fault_injector.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

/** Ends a trace after a fixed number of entries. */
class TruncatedTrace : public TraceSource {
  public:
    TruncatedTrace(std::unique_ptr<TraceSource> inner, std::size_t entries)
        : inner_(std::move(inner)), left_(entries)
    {
    }

    std::optional<TraceEntry>
    Next() override
    {
        if (left_ == 0) {
            return std::nullopt;
        }
        left_ -= 1;
        return inner_->Next();
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::size_t left_;
};

struct Scenario {
    SystemConfig config;
    SyntheticParams params;
    /** Trace length per thread (0 = unbounded); thread t gets
     *  truncate * (t + 1) entries, so the traces run out one by one. */
    std::size_t truncate = 0;
    /** Run() call lengths, in order. */
    std::vector<CpuCycle> runs;
};

std::vector<std::unique_ptr<TraceSource>>
MakeTraces(const Scenario& scenario)
{
    const SystemConfig& config = scenario.config;
    dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    for (ThreadId t = 0; t < config.num_cores; ++t) {
        std::unique_ptr<TraceSource> trace =
            std::make_unique<SyntheticTraceSource>(
                scenario.params, mapper, t, config.num_cores, 1000 + t);
        if (scenario.truncate != 0) {
            trace = std::make_unique<TruncatedTrace>(
                std::move(trace), scenario.truncate * (t + 1));
        }
        traces.push_back(std::move(trace));
    }
    return traces;
}

struct Artifacts {
    std::string stats;
    std::string trace;
    CpuCycle stop = 0;
    std::uint64_t core_cycles = 0;
    std::uint64_t ticks_executed = 0;
};

Artifacts
RunScenario(Scenario scenario, unsigned channel_jobs, bool verify)
{
    scenario.config.channel_jobs = channel_jobs;
    scenario.config.verify_core_fast_path = verify;
    System system(scenario.config, MakeTraces(scenario));
    for (const CpuCycle cycles : scenario.runs) {
        system.Run(cycles);
    }
    Artifacts out;
    out.stop = system.now();
    std::ostringstream stats;
    system.DumpStats(stats);
    out.stats = stats.str();
    if (system.observability() != nullptr) {
        std::ostringstream trace;
        system.WriteTrace(trace, "core-fast-path");
        out.trace = trace.str();
    }
    for (ThreadId t = 0; t < system.num_cores(); ++t) {
        out.core_cycles += system.core(t).stats().cycles;
        out.ticks_executed += system.core(t).stats().ticks_executed;
    }
    return out;
}

Scenario
BaseScenario(std::uint32_t cores, std::uint32_t channels,
             std::size_t scheduler)
{
    Scenario scenario;
    scenario.config = SystemConfig::Baseline(cores, channels);
    scenario.config.scheduler = ComparisonSchedulers()[scheduler];
    scenario.config.observability.trace = true;
    scenario.config.observability.sample_interval = 512;
    scenario.params.mpki = 20.0;
    return scenario;
}

/** The serial per-cycle reference against both engines, verify on/off. */
void
ExpectExact(const Scenario& scenario)
{
    const Artifacts reference = RunScenario(scenario, 1, true);
    EXPECT_EQ(reference.ticks_executed, reference.core_cycles);
    for (const unsigned jobs : {1u, 2u, 4u}) {
        for (const bool verify : {false, true}) {
            if (jobs == 1 && verify) {
                continue;
            }
            const Artifacts run = RunScenario(scenario, jobs, verify);
            EXPECT_EQ(reference.stop, run.stop)
                << "jobs=" << jobs << " verify=" << verify;
            EXPECT_EQ(reference.stats, run.stats)
                << "jobs=" << jobs << " verify=" << verify;
            EXPECT_EQ(reference.trace, run.trace)
                << "jobs=" << jobs << " verify=" << verify;
        }
    }
}

class CoreFastPathExactness : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(CoreFastPathExactness, ScaleConfig)
{
    Scenario scenario = BaseScenario(64, 8, GetParam());
    scenario.runs = {12000};
    ExpectExact(scenario);
}

TEST_P(CoreFastPathExactness, TinyQueuesForceBackpressureWakes)
{
    Scenario scenario = BaseScenario(16, 4, GetParam());
    ControllerConfig& controller = scenario.config.controller;
    controller.read_queue_capacity = 6;
    controller.write_queue_capacity = 4;
    controller.write_drain_high = 3;
    controller.write_drain_low = 1;
    // The system watchdog's checks must land on the same cycles even
    // when whole cycles are skipped.
    controller.watchdog.enabled = true;
    scenario.params.write_fraction = 0.4;
    scenario.runs = {30000};
    ExpectExact(scenario);
}

TEST_P(CoreFastPathExactness, DependentLoads)
{
    Scenario scenario = BaseScenario(16, 4, GetParam());
    scenario.params.dependent_fraction = 0.8;
    scenario.runs = {30000};
    ExpectExact(scenario);
}

TEST_P(CoreFastPathExactness, TracesRunOutMidRun)
{
    Scenario scenario = BaseScenario(16, 4, GetParam());
    scenario.truncate = 40;
    scenario.runs = {200000};
    ExpectExact(scenario);
}

TEST_P(CoreFastPathExactness, OddLengthRunCalls)
{
    Scenario scenario = BaseScenario(16, 4, GetParam());
    scenario.runs = {30000};
    const Artifacts whole = RunScenario(scenario, 1, true);
    scenario.runs = {7, 1, 4999, 10001, 3, 2345, 12644};
    for (const unsigned jobs : {1u, 2u, 4u}) {
        for (const bool verify : {false, true}) {
            const Artifacts split = RunScenario(scenario, jobs, verify);
            EXPECT_EQ(whole.stop, split.stop)
                << "jobs=" << jobs << " verify=" << verify;
            EXPECT_EQ(whole.stats, split.stats)
                << "jobs=" << jobs << " verify=" << verify;
            EXPECT_EQ(whole.trace, split.trace)
                << "jobs=" << jobs << " verify=" << verify;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, CoreFastPathExactness,
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

TEST(CoreFastPath, StalledCoresAreSkippedAt64Cores)
{
    // The memory-intensive 64-core mix stalls most core cycles on the
    // oldest miss (paper §2): the sweep must execute at most a fifth of
    // them, where per-cycle ticking executes every one.
    Scenario scenario = BaseScenario(64, 8, 0);
    scenario.config.observability = {};
    scenario.runs = {40000};
    const Artifacts fast = RunScenario(scenario, 1, false);
    EXPECT_GT(fast.core_cycles, 0u);
    EXPECT_LE(fast.ticks_executed * 5, fast.core_cycles)
        << fast.ticks_executed << " of " << fast.core_cycles;
    const Artifacts reference = RunScenario(scenario, 1, true);
    EXPECT_EQ(reference.ticks_executed, reference.core_cycles);
    EXPECT_EQ(reference.core_cycles, fast.core_cycles);
}

TEST(CoreFastPath, DeadlockWatchdogFiresOnTheSameCycle)
{
    // A scheduler that never serves the only thread wedges the system;
    // with the per-controller sweep parked, the global progress check
    // must trip on the same cycle with the same dump (settled core stats
    // included) whether or not the stalled cycles were skipped.
    auto deadlock = [](unsigned channel_jobs, bool verify) {
        Scenario scenario;
        scenario.config = SystemConfig::Baseline(16);
        scenario.config.num_cores = 1;
        scenario.config.channel_jobs = channel_jobs;
        scenario.config.verify_core_fast_path = verify;
        WatchdogConfig& watchdog = scenario.config.controller.watchdog;
        watchdog.enabled = true;
        watchdog.check_interval = DramCycle{1} << 40;
        scenario.config.scheduler_factory = [] {
            return std::make_unique<WithholdingScheduler>(
                MakeScheduler(SchedulerConfig{}), /*victim=*/0);
        };
        System system(scenario.config, MakeTraces(scenario));
        std::string message;
        try {
            system.Run(1'000'000);
        } catch (const WatchdogError& error) {
            message = error.what();
        }
        EXPECT_NE(message.find("system deadlock"), std::string::npos);
        return std::to_string(system.now()) + "\n" + message;
    };
    for (const unsigned jobs : {1u, 4u}) {
        EXPECT_EQ(deadlock(jobs, true), deadlock(jobs, false))
            << "jobs=" << jobs;
    }
}

} // namespace
} // namespace parbs

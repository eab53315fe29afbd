/**
 * @file
 * Tests of the benchmark's own machinery: the decorators forward every
 * scheduler and trace call faithfully, traced repetitions reproduce
 * untraced ones (and the sharded workload the serial engine), and the
 * run span splits exactly into self time plus its child spans.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "harness.hh"
#include "seams.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "trace/synthetic.hh"

namespace perfbench {
namespace {

using parbs::json::Value;

/** Everything a small System reports, including the scheduler's own
 *  counters reached through the decorator. */
struct Outcome {
    Value stats;
    std::vector<std::uint64_t> counters;
    std::vector<std::pair<std::string, double>> scheduler_stats;
    std::string scheduler_name;
    SeamCount next;
    SeamCount pick;
    SeamCount hook;
};

Outcome
RunSmall(parbs::SchedulerKind kind, bool decorated)
{
    parbs::SystemConfig config = parbs::SystemConfig::Baseline(4);
    config.scheduler.kind = kind;
    config.controller.protocol_check = true;
    std::vector<TimedScheduler*> schedulers;
    if (decorated) {
        const parbs::SchedulerConfig inner = config.scheduler;
        config.scheduler_factory = [inner, &schedulers] {
            auto timed = std::make_unique<TimedScheduler>(
                parbs::MakeScheduler(inner));
            schedulers.push_back(timed.get());
            return std::unique_ptr<parbs::Scheduler>(std::move(timed));
        };
    }
    parbs::dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<parbs::TraceSource>> traces;
    std::vector<TimedTraceSource*> timed_traces;
    static constexpr double kMpki[4] = {30.0, 15.0, 5.0, 1.0};
    for (parbs::ThreadId t = 0; t < 4; ++t) {
        parbs::SyntheticParams params;
        params.mpki = kMpki[t];
        params.write_fraction = 0.3;
        std::unique_ptr<parbs::TraceSource> trace =
            std::make_unique<parbs::SyntheticTraceSource>(params, mapper, t,
                                                          4, 77 + t);
        if (decorated) {
            auto timed = std::make_unique<TimedTraceSource>(std::move(trace));
            timed_traces.push_back(timed.get());
            trace = std::move(timed);
        }
        traces.push_back(std::move(trace));
    }
    parbs::System system(config, std::move(traces));
    system.Run(40'000);

    Outcome out;
    out.stats = SystemStats(system);
    const parbs::Controller& controller = system.controller(0);
    const parbs::Scheduler& scheduler = controller.scheduler();
    const auto memo = scheduler.MemoCounters();
    const auto& fast = controller.fast_path_stats();
    out.counters = {memo.hits,          memo.misses,
                    memo.invalidations, scheduler.BatchOutstanding(),
                    fast.select_scans,  fast.select_skips,
                    fast.retire_scans};
    out.scheduler_stats = scheduler.Stats();
    out.scheduler_name = scheduler.name();
    for (const TimedTraceSource* trace : timed_traces) {
        out.next += trace->next();
    }
    for (const TimedScheduler* timed : schedulers) {
        out.pick += timed->pick();
        out.hook += timed->hook();
    }
    return out;
}

TEST(Decorators, ForwardEverySchedulerFaithfully)
{
    for (const parbs::SchedulerKind kind : parbs::AllSchedulerKinds()) {
        SCOPED_TRACE(parbs::SchedulerKindName(kind));
        const Outcome plain = RunSmall(kind, false);
        const Outcome decorated = RunSmall(kind, true);
        EXPECT_EQ(plain.stats, decorated.stats);
        EXPECT_EQ(plain.counters, decorated.counters);
        EXPECT_EQ(plain.scheduler_stats, decorated.scheduler_stats);
        EXPECT_EQ(plain.scheduler_name, decorated.scheduler_name);
        EXPECT_GT(decorated.next.calls, 0u);
        EXPECT_GT(decorated.pick.calls, 0u);
        EXPECT_GT(decorated.hook.calls, 0u);
    }
}

TEST(Decorators, TracedRepetitionsReproduceUntracedOnes)
{
    for (const Workload& workload : Workloads()) {
        SCOPED_TRACE(workload.name);
        const Rep untraced = RunRep(workload, 5, false, 30);
        const Rep traced = RunRep(workload, 5, true, 30);
        EXPECT_EQ(untraced.thrown + traced.thrown, 0u);
        EXPECT_EQ(CountMismatches(traced.stats, untraced.stats), 0u);
        EXPECT_EQ(CountMismatches(untraced.stats, traced.stats), 0u);
        EXPECT_GT(traced.times.next.calls, 0u);
        EXPECT_GT(traced.times.pick.calls, 0u);
        if (workload.channel_jobs != 1) {
            const Rep serial = RunRep(workload, 5, false, 30, 1);
            EXPECT_EQ(serial.stats, untraced.stats);
        }
    }
}

TEST(Decorators, MismatchIsCountedPerRun)
{
    const Workload& workload = *FindWorkload("light16_writes");
    const Rep a = RunRep(workload, 5, false, 30);
    const Rep b = RunRep(workload, 6, false, 30);
    EXPECT_EQ(CountMismatches(a.stats, a.stats), 0u);
    EXPECT_EQ(CountMismatches(a.stats, b.stats), 1u);
    EXPECT_NE(Digest(a.stats), Digest(b.stats));
}

double
Find(const std::vector<Metric>& metrics, const std::string& name)
{
    for (const Metric& metric : metrics) {
        if (metric.name == name) {
            return metric.value;
        }
    }
    ADD_FAILURE() << "missing metric " << name;
    return 0.0;
}

TEST(Spans, RunSelfPlusChildSpansEqualsRun)
{
    for (const char* name : {"light16_writes", "paper16"}) {
        SCOPED_TRACE(name);
        const Workload& workload = *FindWorkload(name);
        const std::vector<Rep> untraced = {RunRep(workload, 3, false, 30)};
        const std::vector<Rep> traced = {RunRep(workload, 3, true, 30)};
        const std::vector<Metric> metrics =
            LayerMetrics(workload, traced, untraced);
        const double run = Find(metrics, "sim.run_s");
        const double self = Find(metrics, "sim.run_self_s");
        const double children = Find(metrics, "trace.next_s") +
                                Find(metrics, "sched.pick_s") +
                                Find(metrics, "sched.hook_s");
        EXPECT_GT(self, 0.0);
        EXPECT_GT(children, 0.0);
        // One steady_clock tick is 1 ns; allow for double rounding.
        EXPECT_NEAR(self + children, run, 1e-6);
    }
}

/** A trace source that spins for a fixed time on every Next. */
class SlowTrace : public parbs::TraceSource {
  public:
    explicit SlowTrace(std::chrono::microseconds delay) : delay_(delay) {}

    std::optional<parbs::TraceEntry> Next() override
    {
        const Clock::time_point until = Clock::now() + delay_;
        while (Clock::now() < until) {
        }
        parbs::TraceEntry entry;
        entry.compute_instructions = 200;
        entry.addr = (next_++ % 4096) * 64;
        return entry;
    }

  private:
    std::chrono::microseconds delay_;
    std::uint64_t next_ = 0;
};

TEST(Spans, ChildSpanCoversTheCallAndNestsInTheRun)
{
    parbs::SystemConfig config = parbs::SystemConfig::Baseline(4);
    auto timed = std::make_unique<TimedTraceSource>(
        std::make_unique<SlowTrace>(std::chrono::microseconds(20)));
    TimedTraceSource* handle = timed.get();
    std::vector<std::unique_ptr<parbs::TraceSource>> traces;
    traces.push_back(std::move(timed));
    parbs::System system(config, std::move(traces));
    const SeamCount before = handle->next();
    const Clock::time_point start = Clock::now();
    system.Run(20'000);
    const std::uint64_t run_ns = ElapsedNs(start, Clock::now());
    const SeamCount during = handle->next() - before;
    ASSERT_GT(during.calls, 10u);
    EXPECT_GE(during.ns, during.calls * 20'000);
    EXPECT_LE(during.ns, run_ns);
}

} // namespace
} // namespace perfbench

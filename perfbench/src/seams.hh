/**
 * @file
 * Forwarding decorators that time the calls crossing two of the simulator's
 * public seams: every TraceSource::Next a core makes, and every Scheduler
 * virtual a controller calls.  They live in the benchmark, not in the
 * library, so the timed (untraced) passes run exactly the code users run.
 *
 * Each decorator owns its counters.  A decorator belongs to one core or one
 * channel, and the sharded engine advances a core or channel on one
 * participant at a time with a barrier between windows, so the counters
 * are never written concurrently; read them only after System::Run
 * returns.
 */

#ifndef PERFBENCH_SEAMS_HH
#define PERFBENCH_SEAMS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sched/scheduler.hh"
#include "trace/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t
ElapsedNs(Clock::time_point start, Clock::time_point end)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
            .count());
}

/** Calls made through one seam and the host time they took. */
struct SeamCount {
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;

    SeamCount& operator+=(const SeamCount& other)
    {
        calls += other.calls;
        ns += other.ns;
        return *this;
    }
    SeamCount operator-(const SeamCount& other) const
    {
        return {calls - other.calls, ns - other.ns};
    }
};

/** Times every Next() of the wrapped source. */
class TimedTraceSource : public parbs::TraceSource {
  public:
    explicit TimedTraceSource(std::unique_ptr<parbs::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    std::optional<parbs::TraceEntry> Next() override
    {
        const Clock::time_point start = Clock::now();
        std::optional<parbs::TraceEntry> entry = inner_->Next();
        next_.ns += ElapsedNs(start, Clock::now());
        next_.calls += 1;
        return entry;
    }

    const SeamCount& next() const { return next_; }

  private:
    std::unique_ptr<parbs::TraceSource> inner_;
    SeamCount next_;
};

/**
 * Times every Scheduler virtual of the wrapped scheduler, after the
 * ChaosScheduler precedent in sim/fault_injector.hh.  Pick and PickInBank
 * count as picks, the four lifecycle hooks as hooks; the remaining
 * virtuals forward untimed.  PickInBank forwards to the inner scheduler's
 * own PickInBank, so its per-bank memo runs exactly as without the
 * decorator.
 *
 * SetThreadPriority, SetThreadWeight and SetObserver are not virtual: they
 * would set the decorator's state and never reach the inner scheduler.
 * No benchmark workload sets priorities or weights, and the benchmark
 * never enables event tracing, so none of the three is called.
 */
class TimedScheduler : public parbs::Scheduler {
  public:
    explicit TimedScheduler(std::unique_ptr<parbs::Scheduler> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    void Attach(const parbs::SchedulerContext& context) override
    {
        Scheduler::Attach(context);
        inner_->Attach(context);
    }

    parbs::MemRequest* Pick(std::span<const parbs::Candidate> candidates,
                            parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        parbs::MemRequest* picked = inner_->Pick(candidates, now);
        Count(pick_, start);
        return picked;
    }

    parbs::MemRequest* PickInBank(const parbs::RequestQueue& queue,
                                  std::uint32_t bank,
                                  parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        parbs::MemRequest* picked = inner_->PickInBank(queue, bank, now);
        Count(pick_, start);
        return picked;
    }

    bool DeterministicPick() const override
    {
        return inner_->DeterministicPick();
    }

    void OnRequestQueued(parbs::MemRequest& request,
                         parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_->OnRequestQueued(request, now);
        Count(hook_, start);
    }

    void OnCommandIssued(const parbs::MemRequest& request,
                         const parbs::dram::Command& command,
                         parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_->OnCommandIssued(request, command, now);
        Count(hook_, start);
    }

    void OnRequestComplete(const parbs::MemRequest& request,
                           parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_->OnRequestComplete(request, now);
        Count(hook_, start);
    }

    void OnDramCycle(parbs::DramCycle now) override
    {
        const Clock::time_point start = Clock::now();
        inner_->OnDramCycle(now);
        Count(hook_, start);
    }

    std::vector<std::pair<std::string, double>> Stats() const override
    {
        return inner_->Stats();
    }

    std::uint64_t BatchOutstanding() const override
    {
        return inner_->BatchOutstanding();
    }

    PickMemoCounters MemoCounters() const override
    {
        return inner_->MemoCounters();
    }

    const SeamCount& pick() const { return pick_; }
    const SeamCount& hook() const { return hook_; }

  private:
    static void Count(SeamCount& seam, Clock::time_point start)
    {
        seam.ns += ElapsedNs(start, Clock::now());
        seam.calls += 1;
    }

    std::unique_ptr<parbs::Scheduler> inner_;
    SeamCount pick_;
    SeamCount hook_;
};

} // namespace perfbench

#endif // PERFBENCH_SEAMS_HH

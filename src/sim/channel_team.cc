#include "sim/channel_team.hh"

#include "common/assert.hh"
#include "obs/engine_profiler.hh"

namespace parbs {

namespace {

/** Busy-poll budget before yielding; yields before sleeping on the CV.
 *  A window is microseconds, so most waits resolve within the spin. */
constexpr int kSpinIterations = 4000;
constexpr int kYieldIterations = 64;

} // namespace

ChannelTeam::ChannelTeam(unsigned participants, WorkFn work,
                         obs::EngineProfiler* profiler)
    : participants_(participants),
      work_(std::move(work)),
      profiler_(profiler)
{
    PARBS_ASSERT(participants_ >= 2, "team needs at least two participants");
    PARBS_ASSERT(work_ != nullptr, "team needs a work function");
    threads_.reserve(participants_ - 1);
    for (unsigned p = 1; p < participants_; ++p) {
        threads_.emplace_back([this, p] { WorkerLoop(p); });
    }
}

ChannelTeam::~ChannelTeam()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_.store(true, std::memory_order_release);
    }
    wake_.notify_all();
    for (std::thread& thread : threads_) {
        thread.join();
    }
}

void
ChannelTeam::RunWindow()
{
    done_count_.store(0, std::memory_order_relaxed);
    {
        // The bump happens under the mutex so a worker that just checked
        // the generation and is entering wake_.wait cannot miss it.
        std::lock_guard<std::mutex> lock(mutex_);
        generation_.fetch_add(1, std::memory_order_release);
    }
    wake_.notify_all();

    work_(0);

    // Join: every worker must finish its share before control returns —
    // the System merges only once no thread is touching shard state.
    const std::uint64_t join_start =
        profiler_ != nullptr ? obs::EngineProfiler::Now() : 0;
    int spins = 0;
    while (done_count_.load(std::memory_order_acquire) !=
           participants_ - 1) {
        if (++spins > kSpinIterations) {
            std::this_thread::yield();
        }
    }
    if (profiler_ != nullptr) {
        profiler_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kBarrierJoin,
                                 obs::EngineProfiler::Now() - join_start);
    }
}

void
ChannelTeam::WorkerLoop(unsigned participant)
{
    std::uint64_t seen = 0;
    while (true) {
        const std::uint64_t park_start =
            profiler_ != nullptr ? obs::EngineProfiler::Now() : 0;
        std::uint64_t generation = seen;
        for (int i = 0; i < kSpinIterations; ++i) {
            generation = generation_.load(std::memory_order_acquire);
            if (generation != seen ||
                stop_.load(std::memory_order_acquire)) {
                break;
            }
        }
        for (int i = 0;
             i < kYieldIterations && generation == seen &&
             !stop_.load(std::memory_order_acquire);
             ++i) {
            std::this_thread::yield();
            generation = generation_.load(std::memory_order_acquire);
        }
        if (generation == seen && !stop_.load(std::memory_order_acquire)) {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [&] {
                return generation_.load(std::memory_order_acquire) != seen ||
                       stop_.load(std::memory_order_acquire);
            });
            generation = generation_.load(std::memory_order_acquire);
        }
        if (stop_.load(std::memory_order_acquire)) {
            return;
        }
        seen = generation;
        if (profiler_ != nullptr) {
            profiler_->AddPhaseTicks(
                participant, obs::EngineProfiler::Phase::kWorkerPark,
                obs::EngineProfiler::Now() - park_start);
        }
        work_(participant);
        done_count_.fetch_add(1, std::memory_order_acq_rel);
    }
}

} // namespace parbs

/**
 * @file
 * A persistent fork-join team for the sharded cycle loop (DESIGN.md §5g).
 *
 * The sharded System alternates a serial core phase with a parallel
 * controller catch-up phase tens of thousands of times per run, and each
 * parallel phase is only a few microseconds of work per worker — far too
 * fine-grained for the run-level ParallelFor, which starts threads per
 * call (src/sim/runner.hh).  The team instead keeps its workers alive
 * across windows and synchronizes each window with two atomics: a
 * generation counter that releases the workers and a done counter the
 * coordinator joins on.  Workers spin briefly, then yield, then fall back
 * to a condition variable, so an oversubscribed or idle team never burns
 * a core between windows.
 *
 * The coordinator is participant 0 and runs its share of the work inline
 * inside RunWindow, so a team of N participants spawns N - 1 threads.
 */

#ifndef PARBS_SIM_CHANNEL_TEAM_HH
#define PARBS_SIM_CHANNEL_TEAM_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace parbs {

namespace obs {
class EngineProfiler;
}

class ChannelTeam {
  public:
    /** Window body; called once per participant per RunWindow.  It must
     *  not throw (System::RunParticipant keeps each channel's error in its
     *  shard); a throw on a worker thread terminates. */
    using WorkFn = std::function<void(unsigned participant)>;

    /**
     * @param participants total participants including the coordinator
     *        (>= 2; a one-channel-worker System never builds a team);
     *        participants - 1 worker threads are spawned.
     * @param work the window body.  It must partition its effects by
     *        participant index; the team imposes no other structure.
     * @param profiler optional engine flight recorder.  When set, the team
     *        samples its wall clock at the two synchronization points it
     *        owns — the coordinator's join spin and the workers' park
     *        between windows — two samples per participant per window,
     *        nothing on the work path itself.  Gating is a raw-pointer
     *        null check (DESIGN.md §5f discipline).  Taken at construction
     *        (not via a setter) so the spawned workers never read a
     *        half-published pointer.
     */
    ChannelTeam(unsigned participants, WorkFn work,
                obs::EngineProfiler* profiler = nullptr);

    /** Stops and joins the workers (they must be parked, i.e. not inside
     *  an active RunWindow — guaranteed because RunWindow blocks). */
    ~ChannelTeam();

    ChannelTeam(const ChannelTeam&) = delete;
    ChannelTeam& operator=(const ChannelTeam&) = delete;

    unsigned participants() const { return participants_; }

    /**
     * Runs work(p) for every participant and returns once all are done.
     * The caller executes participant 0's share inline.
     */
    void RunWindow();

  private:
    void WorkerLoop(unsigned participant);

    unsigned participants_;
    WorkFn work_;
    /** Engine flight recorder; null when profiling is off. */
    obs::EngineProfiler* profiler_ = nullptr;

    /** Bumped (under mutex_, released) to start a window. */
    std::atomic<std::uint64_t> generation_{0};
    /** Workers that have finished the current window. */
    std::atomic<unsigned> done_count_{0};
    std::atomic<bool> stop_{false};

    /** Guards the generation bump so a worker about to sleep on wake_
     *  cannot miss it. */
    std::mutex mutex_;
    std::condition_variable wake_;

    std::vector<std::thread> threads_;
};

} // namespace parbs

#endif // PARBS_SIM_CHANNEL_TEAM_HH

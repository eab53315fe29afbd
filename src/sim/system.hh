/**
 * @file
 * The full CMP system: cores, the address mapper, and one memory controller
 * per channel, advanced in lock-step on the two clock domains.
 *
 * Two execution engines produce bit-identical results (DESIGN.md §5g):
 * the serial cycle loop, and a sharded loop (config.channel_jobs > 1) that
 * advances each channel's controller on a worker thread in adaptive
 * lookahead windows.  Both advance the cores with one event-driven sweep
 * (DESIGN.md §5d): a core whose cycle made no progress sleeps until a read
 * completes for it or a queue that refused it frees an entry, and its
 * skipped cycles are charged in bulk.
 */

#ifndef PARBS_SIM_SYSTEM_HH
#define PARBS_SIM_SYSTEM_HH

#include <cstdint>
#include <deque>
#include <exception>
#include <iosfwd>
#include <memory>
#include <vector>

#include "cpu/core.hh"
#include "dram/address_mapper.hh"
#include "mem/controller.hh"
#include "mem/request_pool.hh"
#include "obs/observability.hh"
#include "sim/config.hh"
#include "stats/metrics.hh"
#include "trace/trace.hh"

namespace parbs {

class ChannelTeam;

namespace json {
class Value;
}

namespace obs {
class EngineProfiler;
}

/** A simulated chip-multiprocessor sharing a DRAM memory system. */
class System : public MemoryPort {
  public:
    /**
     * @param config validated system configuration
     * @param traces one trace source per core (ownership transferred);
     *        entries may be fewer than cores — missing cores idle.
     */
    System(const SystemConfig& config,
           std::vector<std::unique_ptr<TraceSource>> traces);

    ~System() override;

    /**
     * Runs for @p cpu_cycles CPU cycles (or until every core's trace is
     * exhausted, whichever comes first).  May be called repeatedly to
     * continue the simulation.
     */
    void Run(CpuCycle cpu_cycles);

    /** @return true once all cores have drained their traces. */
    bool AllDone() const;

    CpuCycle now() const { return cpu_cycle_; }

    std::uint32_t num_cores() const;

    Core& core(ThreadId thread);
    const Core& core(ThreadId thread) const;

    Controller& controller(std::uint32_t channel);
    const Controller& controller(std::uint32_t channel) const;
    std::uint32_t num_controllers() const;

    const dram::AddressMapper& mapper() const { return mapper_; }

    /** Sets a thread's priority on every channel's scheduler (Section 5). */
    void SetThreadPriority(ThreadId thread, ThreadPriority priority);

    /** Sets a thread's bandwidth weight on every channel's scheduler. */
    void SetThreadWeight(ThreadId thread, double weight);

    /** Joins core-side and DRAM-side statistics for @p thread. */
    ThreadMeasurement Measure(ThreadId thread) const;

    /** Null unless config.observability.Enabled() at construction. */
    const obs::Observability* observability() const { return obs_.get(); }

    /** Null unless config.observability.engine_profile at construction. */
    const obs::EngineProfiler* engine_profiler() const
    {
        return engine_profiler_.get();
    }

    /**
     * Deterministic engine counters (window accounting, arrival balance,
     * pick-memo rates) for the bench `run.engine` subtree; byte-identical
     * across --jobs / --channel-jobs.
     * @pre the engine profiler is enabled (asserted).
     */
    json::Value EngineRunJson() const;

    /**
     * Volatile engine timings (per-phase wall clock, serial-tail fraction,
     * worker utilization) plus machine-shape counters (request-pool high
     * waters) for the bench `env.engine` subtree.
     * @pre the engine profiler is enabled (asserted).
     */
    json::Value EngineEnvJson() const;

    /**
     * One-look engine state for stall dumps: engine kind, window bounds,
     * profiler phase, per-shard occupancy.
     * Appended to watchdog errors so a hung run shows where the engine
     * was parked.  Works with or without the profiler.
     */
    std::string EngineStateDump() const;

    /**
     * Writes the Chrome trace-event document for this run to @p out.
     * @pre observability is enabled (asserted).
     */
    void WriteTrace(std::ostream& out,
                    const std::string& workload_label = "") const;

    /**
     * Writes a human-readable statistics report for the whole system:
     * per-core performance, per-controller DRAM counters, and each
     * scheduler's own diagnostics (gem5-style end-of-run dump).
     */
    void DumpStats(std::ostream& out) const;

    /**
     * True when Run uses the sharded engine: the resolved channel_jobs
     * exceeds 1, there is more than one channel, and the timing admits a
     * nonzero lookahead window.  Otherwise Run silently falls back to the
     * serial loop (results are identical either way).
     */
    bool sharded() const { return sharded_; }

    /** The sharded engine's lookahead window, in DRAM cycles (0 when the
     *  timing admits none; see DESIGN.md §5g for the bound). */
    DramCycle lookahead_window() const { return window_; }

    /** Resolved channel_jobs: the sharded engine's team size, 1 on the
     *  serial loop.  The auto value (0) never exceeds the hardware
     *  threads. */
    unsigned channel_jobs() const { return shard_jobs_; }

    // --- MemoryPort -------------------------------------------------------
    std::optional<RequestId> TryIssueRead(ThreadId thread, Addr addr) override;
    bool TryIssueWrite(ThreadId thread, Addr addr) override;

  private:
    SystemConfig config_;
    dram::AddressMapper mapper_;

    std::vector<std::unique_ptr<TraceSource>> traces_;
    std::vector<std::unique_ptr<Core>> cores_;
    /**
     * Per-channel request slabs (mem/request_pool.hh).  Declared before
     * the controllers (and the shards below) so the pools are destroyed
     * *after* everything still holding RequestPtrs into them.
     */
    std::vector<std::unique_ptr<RequestPool>> pools_;
    std::vector<std::unique_ptr<Controller>> controllers_;

    /** Constructed only when config.observability.Enabled(). */
    std::unique_ptr<obs::Observability> obs_;
    /** Cached &obs_->sampler(), or null — keeps the Run loop branch cheap. */
    obs::IntervalSampler* sampler_ = nullptr;

    CpuCycle cpu_cycle_ = 0;
    RequestId next_request_id_ = 1;

    /** Total addressable bytes (cached from the geometry). */
    std::uint64_t capacity_bytes_;

    /**
     * Global no-progress detection (active when the controller watchdog is
     * enabled): a monotone progress signature — instructions retired plus
     * DRAM commands issued — must advance within a bounded window while
     * work remains, or the run fails with a WatchdogError carrying the
     * full system statistics dump.
     */
    std::uint64_t progress_signature_ = 0;
    CpuCycle progress_cycle_ = 0;
    CpuCycle progress_bound_cpu_ = 0;
    CpuCycle next_progress_check_ = 0;

    void CheckGlobalProgress();
    std::uint64_t ProgressSignature() const;

    /** @throws ConfigError if @p addr exceeds the configured capacity. */
    void CheckAddr(Addr addr) const;

    /** Read completions awaiting the fixed return-path latency. */
    struct PendingNotify {
        CpuCycle ready;
        ThreadId thread;
        RequestId id;
    };
    std::deque<PendingNotify> notifications_;

    /**
     * The front deadline of notifications_ (kNeverCycle when empty),
     * maintained on every push and delivery so the per-cycle loop probes
     * one cached integer instead of the deque.
     */
    CpuCycle next_notify_ready_ = kNeverCycle;

    void DeliverNotifications();

    /**
     * Cores whose traces have not drained yet, with a per-core done flag
     * to detect the (monotone) transition after each core tick — makes
     * the per-cycle all-done probe O(1) instead of an O(cores) scan.
     */
    std::uint32_t active_cores_ = 0;
    std::vector<std::uint8_t> core_done_;

    // --- event-driven core sweep (DESIGN.md §5d) --------------------------

    /** Bitset of cores due to tick; a core whose tick made no progress
     *  clears its bit and sleeps. */
    std::vector<std::uint64_t> awake_;
    /** Per sleeping core: the first cycle not yet charged to its stats. */
    std::vector<CpuCycle> idle_since_;
    /**
     * Per (channel, read/write queue) bitsets of the cores that queue
     * refused; all of them wake at the first DRAM cycle boundary where it
     * has space.  Indexed by QueueWaiters().
     */
    std::vector<std::uint64_t> queue_waiters_;

    std::uint64_t* QueueWaiters(std::uint32_t channel, bool write)
    {
        return &queue_waiters_[(2 * channel + (write ? 1 : 0)) *
                               awake_.size()];
    }

    /**
     * The shared core sweep of both engines: runs the cores from
     * cpu_cycle_ up to @p until (at most the next DRAM cycle boundary, so
     * no controller tick or retire falls inside), delivering due read
     * notifications, ticking awake cores in thread order and jumping over
     * cycles in which no core is due.  @return true once the run drained.
     */
    bool RunCores(CpuCycle until);
    /** Ticks one due core; a tick without progress puts it to sleep. */
    void TickCore(ThreadId thread);
    /** verify_core_fast_path: ticks a sleeping core and asserts that the
     *  tick changed nothing but what its idle charge predicts. */
    void VerifySleepingCore(ThreadId thread);
    /** Wakes @p thread's core for the current cycle, charging its skipped
     *  cycles; no-op if it is awake. */
    void Wake(ThreadId thread);
    /** Wakes the waiters of every queue that has space again; called at
     *  each DRAM cycle boundary after the retires (real or proxied). */
    void WakeQueueWaiters();
    /** Records that a queue of @p channel refused @p thread's issue. */
    void AwaitQueue(std::uint32_t channel, bool write, ThreadId thread);
    /** Charges every sleeping core's skipped cycles up to cpu_cycle_, so
     *  Core::stats() is exact; done before anything reads it. */
    void SettleCores();

    DramCycle DramNow() const { return cpu_cycle_ / config_.cpu_to_dram_ratio; }

    /** Builds a request from the target channel's slab pool. */
    RequestPtr MakeRequest(ThreadId thread, Addr addr, bool is_write,
                           const dram::DecodedAddr& coords);

    // --- sharded engine (DESIGN.md §5g) -----------------------------------

    /** One issued request in flight to its channel's worker. */
    struct MailboxEntry {
        DramCycle arrival;
        /** Global issue order across channels; keys trace-merge replay. */
        std::uint64_t seq;
        RequestPtr request;
    };

    /**
     * One contiguous run of events in a channel's staging tracer, tagged
     * with its serial-order key: controller-tick runs sort by (cycle,
     * channel); arrival runs sort by (arrival cycle, issue seq) after all
     * tick runs of that cycle.  Keys are unique — at most one tick run per
     * (cycle, channel) and one arrival run per enqueue — so the merge
     * order is total and reproduces the serial emission order exactly.
     */
    struct StagedRun {
        DramCycle cycle;
        std::uint8_t phase; ///< 0 = controller tick, 1 = request arrival
        std::uint64_t order;
        std::uint32_t begin;
        std::uint32_t end;
    };

    struct StagedSample {
        DramCycle cycle;
        obs::ControllerSample data;
    };

    /**
     * Per-channel shard state.  Within a window the coordinator writes the
     * inbox/proxies and the worker reads them (and vice versa for the
     * completion/staging outputs) in strictly alternating phases separated
     * by the team barrier, so no field is ever accessed concurrently.
     */
    struct ChannelShard {
        /** Requests issued by cores this window, in issue order. */
        std::vector<MailboxEntry> inbox;

        /**
         * Exact queue-occupancy proxies driving CanAccept backpressure on
         * the coordinator: incremented at issue, decremented by the retire
         * schedule below.  Asserted equal to the real queue sizes at every
         * barrier.
         */
        std::size_t read_size = 0;
        std::size_t write_size = 0;

        /**
         * The retire schedule for the *next* window: every in-burst
         * request retiring before the window's end, known exactly in
         * advance because the window is no longer than the shortest burst
         * latency (Controller::PendingRetires).  Read entries carry the
         * (thread, id) of the eventual completion, so the schedule doubles
         * as the source of the pre-published core notifications
         * (PublishNotifications).
         */
        std::vector<Controller::PendingRead> read_retires;
        std::vector<DramCycle> write_retires;
        std::size_t read_pos = 0;
        std::size_t write_pos = 0;

        /**
         * Read completions the window actually produced, in tick order.
         * Since notifications are published from the retire schedules
         * ahead of execution, this is purely a cross-check: AdvanceChannel
         * asserts it equals the schedule prefix the window ran under.
         */
        std::vector<PendingNotify> completions;

        /** First per-channel error of the window (e.g. WatchdogError). */
        std::exception_ptr error;

        // Staging observability sinks (null when tracing is off).
        std::unique_ptr<obs::Tracer> tracer;
        std::unique_ptr<obs::LatencyAnatomy> latency;
        std::vector<StagedRun> runs;
        std::size_t staged_mark = 0;
        std::vector<StagedSample> samples;
        DramCycle next_sample = kNeverCycle;

        /** Tags events staged since the last mark as one ordered run. */
        void CloseRun(DramCycle cycle, std::uint8_t phase,
                      std::uint64_t order);
    };

    bool sharded_ = false;
    unsigned shard_jobs_ = 1;
    /** Lookahead window in DRAM cycles; see LookaheadWindow(). */
    DramCycle window_ = 0;
    /** Next controller tick to execute == ceil(cpu_cycle_ / ratio) at
     *  every window boundary (the engine's central invariant). */
    DramCycle next_tick_ = 0;
    std::uint64_t arrival_seq_ = 0;
    std::size_t read_capacity_ = 0;
    std::size_t write_capacity_ = 0;
    DramCycle sample_interval_ = 0;

    std::vector<std::unique_ptr<ChannelShard>> shards_;

    /** Current window bounds, published before each team release. */
    DramCycle window_from_ = 0;
    DramCycle window_to_ = 0;
    DramCycle window_limit_ = 0;

    /** Merge scratch, reused across windows. */
    struct TaggedRun {
        StagedRun run;
        std::uint32_t channel;
    };
    std::vector<TaggedRun> merge_runs_;
    /** Per-channel cursor scratch for the notification publish merge. */
    std::vector<std::size_t> publish_pos_;

    // --- engine flight recorder (DESIGN.md §5h) ---------------------------

    /** Constructed only when config.observability.engine_profile. */
    std::unique_ptr<obs::EngineProfiler> engine_profiler_;
    /** Cached raw pointer, same discipline as sampler_: the hot-path gate
     *  is one null check, no unique_ptr deref. */
    obs::EngineProfiler* eng_ = nullptr;
    /** The serial engine's replica of next_tick_: where the sharded engine
     *  would close windows, so the deterministic window counters match
     *  byte-for-byte across engines (ProfileSerialWindow). */
    DramCycle prof_next_tick_ = 0;
    /** Reused per-channel occupancy scratch for window closes. */
    std::vector<std::uint64_t> prof_occupancy_;

    /** Closes the serial engine's replicated window at the current cycle
     *  (no-op when no controller tick has been executed since the last
     *  close). */
    void ProfileSerialWindow();

    /** Rethrows a worker-side error; watchdog errors are rewrapped with
     *  the engine state dump appended so a stall shows where the engine
     *  was parked. */
    [[noreturn]] void RethrowShardError(std::exception_ptr error);

    /** Ordered last so its threads join before any state they touch dies. */
    std::unique_ptr<ChannelTeam> team_;

    /** The largest window that preserves cycle-exactness (DESIGN.md §5g):
     *  min(read burst latency, write burst latency) in DRAM cycles — the
     *  earliest a command issued inside a window can complete.  Read
     *  notifications are published ahead of execution, so the return-path
     *  latency no longer bounds the window. */
    DramCycle LookaheadWindow() const;

    void RunSerial(CpuCycle end);
    void RunSharded(CpuCycle end);

    /** Worker body: advances this participant's channels.  Never throws:
     *  a channel's error is kept in its shard for MergeWindow. */
    void RunParticipant(unsigned participant);
    void AdvanceChannel(std::uint32_t channel);

    /**
     * Rebuilds the pre-published notification schedule at a window
     * boundary: drops the (provably undelivered) suffix for ticks >=
     * next_tick_ and re-appends the shards' fresh read-retire schedules,
     * k-way merged by (completion, channel) — the serial callback order.
     */
    void PublishNotifications();

    /** Applies scheduled retires with completion <= @p tick to proxies. */
    void ApplyScheduledRetires(DramCycle tick);

    /** Re-establishes coordinator state from the real controllers at the
     *  start of a sharded Run (schedules, proxies, sampler cursors). */
    void PrepareShardedRun();

    /** Folds the window's outputs back into the serial-order structures:
     *  notifications, trace, latency, samples; verifies the proxies. */
    void MergeWindow();
    void MergeObservability();

    /** O(channels) drained check over the occupancy proxies. */
    bool AllShardsIdle() const;

    /** Points controllers and adapters at the staging (or main) sinks. */
    void BindShardObservability(bool staging);
};

} // namespace parbs

#endif // PARBS_SIM_SYSTEM_HH

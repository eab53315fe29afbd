#include "sim/system.hh"

#include <algorithm>
#include <bit>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/assert.hh"
#include "common/json.hh"
#include "obs/engine_profiler.hh"
#include "sim/channel_team.hh"
#include "sim/runner.hh"

namespace parbs {

namespace {

/**
 * Staging-ring sizing for one channel and one lookahead window.  The worst
 * tick emits one event per command / skip-span / burst / retire plus the
 * scheduler's batch-formation storm (a rank event per thread and a
 * marking-cap event per queued read), and a window additionally stages one
 * arrival event per enqueue — bounded by the queue capacities.  The merge
 * asserts dropped() == 0, so undersizing is loud, not silent.
 */
std::size_t
StagingCapacity(DramCycle window, std::size_t read_capacity,
                std::size_t write_capacity, std::uint32_t threads)
{
    return static_cast<std::size_t>(window + 2) *
               (read_capacity + threads + 32) +
           read_capacity + write_capacity + 1024;
}

} // namespace

System::System(const SystemConfig& config,
               std::vector<std::unique_ptr<TraceSource>> traces)
    : config_(config),
      mapper_(config.geometry, config.xor_bank_hash),
      traces_(std::move(traces))
{
    config_.Validate();
    if (traces_.size() > config_.num_cores) {
        PARBS_FATAL("more traces than cores");
    }
    capacity_bytes_ = config_.geometry.CapacityBytes();
    if (config_.controller.watchdog.enabled) {
        // The system-level bound wraps the per-controller one with slack
        // for the clock-domain ratio and cross-controller skew.
        progress_bound_cpu_ =
            4 * config_.cpu_to_dram_ratio *
            ResolveNoProgressBound(config_.controller.watchdog,
                                   config_.timing);
    }
    read_capacity_ = config_.controller.read_queue_capacity;
    write_capacity_ = config_.controller.write_queue_capacity;
    sample_interval_ = config_.observability.sample_interval;

    // Per-channel geometry: each controller sees a single-channel slice.
    dram::Geometry channel_geometry = config_.geometry;
    channel_geometry.channels = 1;
    for (std::uint32_t channel = 0; channel < config_.geometry.channels;
         ++channel) {
        // One request slab per channel, sized so a full pair of queues fits
        // in a single slab (mem/request_pool.hh).
        pools_.push_back(std::make_unique<RequestPool>(
            read_capacity_ + write_capacity_ + 16));
        auto scheduler = config_.scheduler_factory
                             ? config_.scheduler_factory()
                             : MakeScheduler(config_.scheduler);
        // Each channel's RAS engine draws from an independent stream keyed
        // by (seed, channel) so fault placement does not depend on the
        // channel count or on which worker simulates the channel.
        ControllerConfig controller_config = config_.controller;
        controller_config.ras.channel = channel;
        if (controller_config.ras.seed == 0) {
            controller_config.ras.seed = config_.seed;
        }
        controllers_.push_back(std::make_unique<Controller>(
            controller_config, config_.timing, channel_geometry,
            config_.num_cores, std::move(scheduler)));
        controllers_.back()->SetReadCompleteCallback(
            [this, channel](const MemRequest& request, DramCycle now) {
                // Model the fixed return path (interconnect + L2 fill)
                // before the core observes the data.  `now` is the
                // retiring DRAM cycle, so now * ratio is the CPU cycle of
                // the serial controller tick — on the serial engine that
                // equals cpu_cycle_, and on the sharded engine it makes
                // the deadline independent of how far the cores ran ahead.
                const CpuCycle ready =
                    now * config_.cpu_to_dram_ratio +
                    config_.extra_read_latency_cpu;
                if (sharded_) {
                    // The sharded engine pre-publishes notifications from
                    // the retire schedules (PublishNotifications); the
                    // callback's record is kept only so AdvanceChannel can
                    // assert the window produced exactly the published
                    // prefix.
                    shards_[channel]->completions.push_back(
                        {ready, request.thread, request.id});
                } else {
                    notifications_.push_back(
                        {ready, request.thread, request.id});
                    next_notify_ready_ = notifications_.front().ready;
                }
            });
    }

    if (config_.observability.Enabled()) {
        obs_ = std::make_unique<obs::Observability>(
            config_.observability, config_.num_cores,
            static_cast<std::uint32_t>(controllers_.size()));
        sampler_ = &obs_->sampler();
        for (std::uint32_t channel = 0; channel < controllers_.size();
             ++channel) {
            controllers_[channel]->AttachObservability(
                &obs_->tracer(), &obs_->latency(),
                static_cast<std::uint8_t>(channel));
            controllers_[channel]->scheduler().SetObserver(
                &obs_->adapter(channel));
        }
    }

    for (ThreadId thread = 0; thread < traces_.size(); ++thread) {
        cores_.push_back(std::make_unique<Core>(config_.core, thread,
                                                *traces_[thread], *this));
    }
    core_done_.assign(cores_.size(), 0);
    active_cores_ = 0;
    for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
        if (cores_[thread]->Done()) {
            core_done_[thread] = 1;
        } else {
            active_cores_ += 1;
        }
    }
    // Every core starts awake; nothing waits on a queue yet.
    const std::size_t words = (cores_.size() + 63) / 64;
    awake_.assign(words, ~std::uint64_t{0});
    if (cores_.size() % 64 != 0) {
        awake_.back() = (std::uint64_t{1} << (cores_.size() % 64)) - 1;
    }
    idle_since_.assign(cores_.size(), 0);
    queue_waiters_.assign(2 * controllers_.size() * words, 0);

    // Resolve the sharded engine (DESIGN.md §5g) by the one host-thread
    // rule the bench harness also sizes its batches with.
    const auto channels =
        static_cast<std::uint32_t>(controllers_.size());
    shard_jobs_ = ResolveChannelJobs(config_.channel_jobs, channels);
    window_ = LookaheadWindow();
    sharded_ = shard_jobs_ > 1 && window_ >= 1;
    if (!sharded_) {
        shard_jobs_ = 1;
    }
    if (config_.observability.engine_profile) {
        engine_profiler_ = std::make_unique<obs::EngineProfiler>(
            shard_jobs_, channels, window_);
        eng_ = engine_profiler_.get();
        prof_occupancy_.assign(channels, 0);
    }
    if (!sharded_) {
        return;
    }
    for (std::uint32_t channel = 0; channel < channels; ++channel) {
        auto shard = std::make_unique<ChannelShard>();
        if (obs_ != nullptr) {
            shard->tracer = std::make_unique<obs::Tracer>(StagingCapacity(
                window_, read_capacity_, write_capacity_,
                config_.num_cores));
            shard->latency =
                std::make_unique<obs::LatencyAnatomy>(config_.num_cores);
        }
        shards_.push_back(std::move(shard));
    }

    team_ = std::make_unique<ChannelTeam>(
        shard_jobs_,
        [this](unsigned participant) { RunParticipant(participant); },
        eng_);
}

System::~System() = default;

DramCycle
System::LookaheadWindow() const
{
    // Cores may run W DRAM cycles ahead of the controllers iff everything
    // a controller would make visible to a core within those W ticks is
    // known before they run.  Queue departures and read returns within the
    // window come only from bursts already in flight at its start — a
    // command issued inside the window completes no earlier than the
    // shortest burst latency — so W <= min(read burst, write burst) makes
    // the published retire schedules (and the notification schedule
    // derived from them, PublishNotifications) exhaustive and exact.  The
    // return-path latency does not bound W: notifications are published
    // ahead of execution rather than discovered at the retiring tick.
    // The bound must reflect the timing the controllers actually run with,
    // so it is read back from the constructed channel rather than from the
    // config snapshot (they are equal today, but the window is the one
    // place where a future divergence would corrupt results silently).
    const dram::TimingParams& t = controllers_.front()->channel().timing();
    const DramCycle read_burst = t.tCL + t.tBURST;
    const DramCycle write_burst = t.tCWD + t.tBURST;
    return std::min(read_burst, write_burst);
}

void
System::Run(CpuCycle cpu_cycles)
{
    const CpuCycle end = cpu_cycle_ + cpu_cycles;
    // Sleeping cores' skipped cycles are charged when the run returns,
    // also by an exception, so Core::stats() is exact between runs.
    struct SettleGuard {
        System& system;
        ~SettleGuard() { system.SettleCores(); }
    };
    SettleGuard settle{*this};
    if (sharded_) {
        RunSharded(end);
    } else {
        RunSerial(end);
    }
}

void
System::RunSerial(CpuCycle end)
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    // Replicate the sharded engine's window schedule so the deterministic
    // engine counters are byte-identical across engines: the sharded loop
    // closes a window whenever the cores reach the lookahead horizon, and
    // at that point its controllers have executed exactly the ticks the
    // serial loop has executed here (DESIGN.md §5h).
    if (eng_ != nullptr) {
        prof_next_tick_ = (cpu_cycle_ + ratio - 1) / ratio;
    }
    while (cpu_cycle_ < end) {
        if (eng_ != nullptr &&
            cpu_cycle_ == (prof_next_tick_ + window_) * ratio) {
            ProfileSerialWindow();
        }
        if (cpu_cycle_ % ratio == 0) {
            const DramCycle dram_now = DramNow();
            for (auto& controller : controllers_) {
                controller->Tick(dram_now);
            }
            if (sampler_ != nullptr) {
                sampler_->Tick(dram_now, controllers_);
            }
            WakeQueueWaiters();
        }
        if (RunCores(std::min(end, (DramNow() + 1) * ratio))) {
            break;
        }
    }
    // Residual close: the sharded loop closes its last (short) window when
    // the run ends or drains; mirror it so the window counts agree.
    if (eng_ != nullptr) {
        ProfileSerialWindow();
    }
}

void
System::ProfileSerialWindow()
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    const DramCycle target = (cpu_cycle_ + ratio - 1) / ratio;
    if (target <= prof_next_tick_) {
        return;
    }
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        prof_occupancy_[channel] = controllers_[channel]->pending_reads() +
                                   controllers_[channel]->pending_writes();
    }
    eng_->OnWindowClose(prof_next_tick_, target, prof_occupancy_);
    prof_next_tick_ = target;
}

void
System::PrepareShardedRun()
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    next_tick_ = (cpu_cycle_ + ratio - 1) / ratio;
    arrival_seq_ = 0;
    if (sampler_ != nullptr && sample_interval_ > 0) {
        sampler_->PrepareChannels(controllers_);
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        const Controller& controller = *controllers_[channel];
        shard.inbox.clear();
        shard.completions.clear();
        shard.read_size = controller.pending_reads();
        shard.write_size = controller.pending_writes();
        shard.read_retires.clear();
        shard.write_retires.clear();
        shard.read_pos = 0;
        shard.write_pos = 0;
        controller.PendingRetires(next_tick_ + window_, shard.read_retires,
                                  shard.write_retires);
        shard.next_sample = sampler_ != nullptr && sample_interval_ > 0
                                ? sampler_->next_sample()
                                : kNeverCycle;
        shard.runs.clear();
        shard.staged_mark = 0;
        shard.samples.clear();
        shard.error = nullptr;
    }
    // A previous Run may have left published-but-unexecuted notifications
    // behind; rebuild the schedule from the freshly read FIFOs.
    PublishNotifications();
}

void
System::BindShardObservability(bool staging)
{
    if (obs_ == nullptr) {
        return;
    }
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        obs::Tracer* tracer =
            staging ? shards_[channel]->tracer.get() : &obs_->tracer();
        obs::LatencyAnatomy* latency =
            staging ? shards_[channel]->latency.get() : &obs_->latency();
        controllers_[channel]->AttachObservability(
            tracer, latency, static_cast<std::uint8_t>(channel));
        obs_->adapter(channel).SetTracer(tracer);
    }
}

void
System::RunSharded(CpuCycle end)
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    PrepareShardedRun();

    // Rebind the observability sinks to the per-channel staging buffers for
    // the duration of the run — restored even if a watchdog error unwinds.
    struct BindGuard {
        System& system;
        ~BindGuard() { system.BindShardObservability(false); }
    };
    BindShardObservability(true);
    BindGuard guard{*this};

    bool all_done = false;
    while (cpu_cycle_ < end && !all_done) {
        if (eng_ != nullptr) {
            eng_->BeginWindowWall();
        }
        // --- core phase ------------------------------------------------
        // Runs the cores up to the lookahead horizon, replaying queue
        // departures from the published retire/notification schedules so
        // backpressure and read returns are bit-exact without touching
        // the controllers.
        const CpuCycle core_end =
            std::min<CpuCycle>(end, (next_tick_ + window_) * ratio);
        const std::uint64_t sweep_start =
            eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
        if (eng_ != nullptr) {
            eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kCoreSweep);
        }
        while (cpu_cycle_ < core_end && !all_done) {
            if (cpu_cycle_ % ratio == 0) {
                ApplyScheduledRetires(DramNow());
                WakeQueueWaiters();
            }
            all_done = RunCores(std::min(core_end, (DramNow() + 1) * ratio));
        }
        if (eng_ != nullptr) {
            eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kCoreSweep,
                                obs::EngineProfiler::Now() - sweep_start);
        }

        // --- controller catch-up (parallel) + barrier ------------------
        const DramCycle target = (cpu_cycle_ + ratio - 1) / ratio;
        if (target > next_tick_) {
            window_from_ = next_tick_;
            window_to_ = target;
            window_limit_ = target + window_;
            if (eng_ != nullptr) {
                eng_->SetCurrentPhase(
                    obs::EngineProfiler::Phase::kChannelWork);
            }
            team_->RunWindow();
            next_tick_ = target;
            MergeWindow();
            if (eng_ != nullptr) {
                // Occupancy at the close, from the proxies the coordinator
                // just verified against the real queues (MergeWindow) —
                // identical to the serial engine's controller readback.
                for (std::uint32_t channel = 0; channel < shards_.size();
                     ++channel) {
                    prof_occupancy_[channel] = shards_[channel]->read_size +
                                               shards_[channel]->write_size;
                }
                eng_->OnWindowClose(window_from_, target, prof_occupancy_);
            }
        }
    }
}

void
System::RunParticipant(unsigned participant)
{
    const std::uint64_t work_start =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    const auto channels = static_cast<std::uint32_t>(controllers_.size());
    for (std::uint32_t channel = participant; channel < channels;
         channel += shard_jobs_) {
        try {
            AdvanceChannel(channel);
        } catch (...) {
            shards_[channel]->error = std::current_exception();
        }
    }
    if (eng_ != nullptr) {
        eng_->AddPhaseTicks(participant,
                            obs::EngineProfiler::Phase::kChannelWork,
                            obs::EngineProfiler::Now() - work_start);
    }
}

bool
System::RunCores(CpuCycle until)
{
    const bool verify = config_.verify_core_fast_path;
    while (cpu_cycle_ < until) {
        if (next_notify_ready_ <= cpu_cycle_) {
            DeliverNotifications();
        }
        bool any_awake = false;
        if (verify) {
            // Reference schedule: every core ticks, in thread order.
            for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
                if ((awake_[thread / 64] >> (thread % 64)) & 1) {
                    TickCore(thread);
                } else {
                    VerifySleepingCore(thread);
                }
            }
        } else {
            for (std::size_t word = 0; word < awake_.size(); ++word) {
                // Cores only fall asleep during the sweep (wakes come from
                // deliveries and retires, before it), so a snapshot of the
                // word is the exact due set in thread order.
                for (std::uint64_t due = awake_[word]; due != 0;
                     due &= due - 1) {
                    TickCore(static_cast<ThreadId>(
                        word * 64 + std::countr_zero(due)));
                }
                any_awake = any_awake || awake_[word] != 0;
            }
        }
        cpu_cycle_ += 1;
        if (progress_bound_cpu_ != 0 && cpu_cycle_ >= next_progress_check_) {
            CheckGlobalProgress();
        }
        // On the sharded engine the proxies stand in for the lagging
        // controllers: they describe their state at exactly this cycle.
        if (active_cores_ == 0 &&
            (sharded_ ? notifications_.empty() && AllShardsIdle()
                      : AllDone())) {
            return true;
        }
        if (any_awake || verify) {
            continue;
        }
        // No core is due before the next notification, the watchdog's next
        // check, or `until` (the next controller tick), and nothing the
        // drained probe reads changes before then: jump.
        CpuCycle next = std::min(until, next_notify_ready_);
        if (progress_bound_cpu_ != 0) {
            next = std::min(next, next_progress_check_);
        }
        if (next > cpu_cycle_) {
            cpu_cycle_ = next;
            if (progress_bound_cpu_ != 0 &&
                cpu_cycle_ >= next_progress_check_) {
                CheckGlobalProgress();
            }
        }
    }
    return false;
}

void
System::TickCore(ThreadId thread)
{
    Core& core = *cores_[thread];
    if (core.Tick()) {
        // Done() is monotone and flips only on a tick with progress, so
        // checking the transition here keeps the all-done probe O(1).
        if (core_done_[thread] == 0 && core.Done()) {
            core_done_[thread] = 1;
            active_cores_ -= 1;
        }
        return;
    }
    awake_[thread / 64] &= ~(std::uint64_t{1} << (thread % 64));
    idle_since_[thread] = cpu_cycle_ + 1;
}

void
System::VerifySleepingCore(ThreadId thread)
{
    Core& core = *cores_[thread];
    CoreStats expected = core.stats();
    core.ChargeIdle(expected, 1);
    expected.ticks_executed += 1;
    const bool progress = core.Tick();
    PARBS_ASSERT(!progress && core.stats() == expected,
                 "core fast path slept through a cycle with progress");
    // Ticked for real, so nothing is left to charge in bulk.
    idle_since_[thread] = cpu_cycle_ + 1;
}

void
System::Wake(ThreadId thread)
{
    std::uint64_t& word = awake_[thread / 64];
    const std::uint64_t bit = std::uint64_t{1} << (thread % 64);
    if ((word & bit) == 0) {
        word |= bit;
        cores_[thread]->AddIdleCycles(cpu_cycle_ - idle_since_[thread]);
    }
}

void
System::WakeQueueWaiters()
{
    const std::size_t words = awake_.size();
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        for (const bool write : {false, true}) {
            std::uint64_t* waiters = QueueWaiters(channel, write);
            if (std::all_of(waiters, waiters + words,
                            [](std::uint64_t word) { return word == 0; })) {
                continue;
            }
            // The sharded engine's controllers lag; its proxies hold the
            // queue sizes at this cycle.
            bool space;
            if (sharded_) {
                const ChannelShard& shard = *shards_[channel];
                space = write ? shard.write_size < write_capacity_
                              : shard.read_size < read_capacity_;
            } else {
                const Controller& controller = *controllers_[channel];
                space = write ? controller.CanAcceptWrite()
                              : controller.CanAcceptRead();
            }
            if (!space) {
                continue;
            }
            for (std::size_t word = 0; word < words; ++word) {
                for (std::uint64_t bits = waiters[word]; bits != 0;
                     bits &= bits - 1) {
                    Wake(static_cast<ThreadId>(word * 64 +
                                               std::countr_zero(bits)));
                }
                waiters[word] = 0;
            }
        }
    }
}

void
System::AwaitQueue(std::uint32_t channel, bool write, ThreadId thread)
{
    // Direct MemoryPort callers (tests, fault scenarios) may issue for a
    // thread without a core; there is nothing to wake then.
    if (thread < cores_.size()) {
        QueueWaiters(channel, write)[thread / 64] |= std::uint64_t{1}
                                                     << (thread % 64);
    }
}

void
System::SettleCores()
{
    // A core that fell asleep in a cycle an exception cut short has
    // nothing to charge yet (its idle time starts at the next cycle).
    for (ThreadId thread = 0; thread < cores_.size(); ++thread) {
        if (((awake_[thread / 64] >> (thread % 64)) & 1) == 0 &&
            idle_since_[thread] < cpu_cycle_) {
            cores_[thread]->AddIdleCycles(cpu_cycle_ - idle_since_[thread]);
            idle_since_[thread] = cpu_cycle_;
        }
    }
}

void
System::AdvanceChannel(std::uint32_t channel)
{
    ChannelShard& shard = *shards_[channel];
    Controller& controller = *controllers_[channel];
    std::size_t next_in = 0;
    for (DramCycle tick = window_from_; tick < window_to_; ++tick) {
        // Serial order within one DRAM cycle d: the controller ticks at
        // CPU cycle d * ratio, the sampler reads it, and only then do the
        // cores issue — so arrivals stamped d enqueue after Tick(d).
        while (next_in < shard.inbox.size() &&
               shard.inbox[next_in].arrival < tick) {
            MailboxEntry& entry = shard.inbox[next_in];
            controller.Enqueue(std::move(entry.request), entry.arrival);
            shard.CloseRun(entry.arrival, 1, entry.seq);
            next_in += 1;
        }
        controller.Tick(tick);
        shard.CloseRun(tick, 0, channel);
        if (tick == shard.next_sample) {
            shard.samples.push_back(
                {tick, sampler_->SampleChannel(controller, channel)});
            shard.next_sample += sample_interval_;
        }
    }
    while (next_in < shard.inbox.size()) {
        MailboxEntry& entry = shard.inbox[next_in];
        PARBS_ASSERT(entry.arrival < window_to_,
                     "mailbox arrival beyond the window");
        controller.Enqueue(std::move(entry.request), entry.arrival);
        shard.CloseRun(entry.arrival, 1, entry.seq);
        next_in += 1;
    }
    shard.inbox.clear();

    // Cross-check: the read completions the window actually produced must
    // be exactly the published schedule prefix the cores already consumed
    // as notifications (same count, same cycles, same threads and ids).
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    std::size_t expected = 0;
    while (expected < shard.read_retires.size() &&
           shard.read_retires[expected].done < window_to_) {
        expected += 1;
    }
    PARBS_ASSERT(shard.completions.size() == expected,
                 "window completions diverged from the published schedule");
    for (std::size_t i = 0; i < expected; ++i) {
        const Controller::PendingRead& published = shard.read_retires[i];
        const PendingNotify& produced = shard.completions[i];
        PARBS_ASSERT(produced.ready ==
                             published.done * ratio +
                                 config_.extra_read_latency_cpu &&
                         produced.thread == published.thread &&
                         produced.id == published.id,
                     "window completion diverged from the published "
                     "schedule");
    }
    shard.completions.clear();

    // Publish the next window's retire schedule while still parallel.
    shard.read_retires.clear();
    shard.write_retires.clear();
    controller.PendingRetires(window_limit_, shard.read_retires,
                              shard.write_retires);
}

void
System::ChannelShard::CloseRun(DramCycle cycle, std::uint8_t phase,
                               std::uint64_t order)
{
    if (tracer == nullptr) {
        return;
    }
    const std::size_t size = tracer->size();
    if (size == staged_mark) {
        return;
    }
    PARBS_ASSERT(tracer->dropped() == 0, "staging tracer overflowed");
    runs.push_back({cycle, phase, order,
                    static_cast<std::uint32_t>(staged_mark),
                    static_cast<std::uint32_t>(size)});
    staged_mark = size;
}

void
System::ApplyScheduledRetires(DramCycle tick)
{
    // Mirrors Controller::RetireFinished, which retires at most one read
    // and one write per tick, each exactly at its completion cycle (the
    // cycles in one schedule are distinct, so `<=` matches `==` here).
    for (auto& shard : shards_) {
        if (shard->read_pos < shard->read_retires.size() &&
            shard->read_retires[shard->read_pos].done <= tick) {
            shard->read_pos += 1;
            shard->read_size -= 1;
        }
        if (shard->write_pos < shard->write_retires.size() &&
            shard->write_retires[shard->write_pos] <= tick) {
            shard->write_pos += 1;
            shard->write_size -= 1;
        }
    }
}

bool
System::AllShardsIdle() const
{
    for (const auto& shard : shards_) {
        if (shard->read_size != 0 || shard->write_size != 0) {
            return false;
        }
    }
    return true;
}

void
System::MergeWindow()
{
    const std::uint64_t t0 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kMerge);
    }
    for (auto& shard : shards_) {
        if (shard->error != nullptr) {
            std::exception_ptr error = shard->error;
            shard->error = nullptr;
            RethrowShardError(error);
        }
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        // The proxies drove every CanAccept answer of the window; if they
        // drifted from the real queues the run is not serial-equivalent.
        PARBS_ASSERT(shard.read_size ==
                             controllers_[channel]->pending_reads() &&
                         shard.write_size ==
                             controllers_[channel]->pending_writes(),
                     "occupancy proxy diverged from the controller");
        shard.read_pos = 0;
        shard.write_pos = 0;
    }

    // The workers republished their retire schedules for the widened
    // horizon (AdvanceChannel); rebuild the notification schedule on top.
    const std::uint64_t t1 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kPublish);
    }
    PublishNotifications();
    const std::uint64_t t2 =
        eng_ != nullptr ? obs::EngineProfiler::Now() : 0;

    if (obs_ != nullptr) {
        MergeObservability();
    }
    if (eng_ != nullptr) {
        eng_->SetCurrentPhase(obs::EngineProfiler::Phase::kMerge);
        eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kPublish,
                            t2 - t1);
        eng_->AddPhaseTicks(0, obs::EngineProfiler::Phase::kMerge,
                            (obs::EngineProfiler::Now() - t2) + (t1 - t0));
    }
}

void
System::RethrowShardError(std::exception_ptr error)
{
    try {
        std::rethrow_exception(error);
    } catch (const WatchdogError& watchdog) {
        // A stalled worker's dump shows controller state; add where the
        // engine itself was parked when the bound tripped.
        throw WatchdogError(std::string(watchdog.what()) + "\n" +
                            EngineStateDump());
    }
    // Any other exception propagates unchanged from the rethrow above.
}

void
System::PublishNotifications()
{
    const CpuCycle ratio = config_.cpu_to_dram_ratio;
    const CpuCycle horizon =
        next_tick_ * ratio + config_.extra_read_latency_cpu;

    // Drop the previously published suffix: entries for retire ticks >=
    // next_tick_ sit at ready >= horizon, and none of them was delivered
    // (delivery implies ready <= the core clock < horizon, since the last
    // executed tick is next_tick_ - 1).  Entries below the horizon belong
    // to executed ticks and are final — they stay.
    while (!notifications_.empty() &&
           notifications_.back().ready >= horizon) {
        notifications_.pop_back();
    }

    // Re-append the fresh schedules, k-way merged by (completion cycle,
    // channel): within one DRAM cycle the serial loop ticks channels in
    // index order and each retires at most one read per tick, so the key
    // is unique and the order is exactly the serial callback order.
    publish_pos_.assign(shards_.size(), 0);
    while (true) {
        std::size_t best = shards_.size();
        for (std::size_t channel = 0; channel < shards_.size(); ++channel) {
            const ChannelShard& shard = *shards_[channel];
            if (publish_pos_[channel] >= shard.read_retires.size()) {
                continue;
            }
            if (best == shards_.size() ||
                shard.read_retires[publish_pos_[channel]].done <
                    shards_[best]->read_retires[publish_pos_[best]].done) {
                best = channel;
            }
        }
        if (best == shards_.size()) {
            break;
        }
        const Controller::PendingRead& entry =
            shards_[best]->read_retires[publish_pos_[best]];
        publish_pos_[best] += 1;
        const CpuCycle ready =
            entry.done * ratio + config_.extra_read_latency_cpu;
        PARBS_ASSERT(notifications_.empty() ||
                         notifications_.back().ready <= ready,
                     "published notifications out of order");
        notifications_.push_back({ready, entry.thread, entry.id});
    }
    next_notify_ready_ = notifications_.empty()
                             ? kNeverCycle
                             : notifications_.front().ready;
}

void
System::MergeObservability()
{
    // Trace: replay each channel's staged event runs into the main ring in
    // the serial emission order (see StagedRun for the key argument).
    merge_runs_.clear();
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        ChannelShard& shard = *shards_[channel];
        // Tag anything emitted after the last tick (there should be none,
        // but a trailing run must not be silently dropped).  The key must
        // stay unique across channels, hence the channel offset.
        shard.CloseRun(window_to_ - 1, 1, arrival_seq_ + channel);
        PARBS_ASSERT(shard.tracer->dropped() == 0,
                     "staging tracer overflowed");
        for (const StagedRun& run : shard.runs) {
            merge_runs_.push_back({run, channel});
        }
    }
    std::sort(merge_runs_.begin(), merge_runs_.end(),
              [](const TaggedRun& a, const TaggedRun& b) {
                  if (a.run.cycle != b.run.cycle) {
                      return a.run.cycle < b.run.cycle;
                  }
                  if (a.run.phase != b.run.phase) {
                      return a.run.phase < b.run.phase;
                  }
                  return a.run.order < b.run.order;
              });
    obs::Tracer& main_tracer = obs_->tracer();
    for (const TaggedRun& tagged : merge_runs_) {
        const obs::Tracer& staging = *shards_[tagged.channel]->tracer;
        for (std::uint32_t i = tagged.run.begin; i < tagged.run.end; ++i) {
            main_tracer.Emit(staging.event(i));
        }
    }
    for (auto& shard : shards_) {
        shard->tracer->Clear();
        shard->runs.clear();
        shard->staged_mark = 0;
        obs_->latency().Merge(*shard->latency);
        shard->latency->Clear();
    }

    // Sampler rows: every channel sampled at the same cycles (they share
    // the cursor's start and stride), so rows zip back together in channel
    // order, exactly as the serial TakeSample would have built them.
    if (sampler_ == nullptr || sample_interval_ == 0 ||
        shards_.front()->samples.empty()) {
        for (auto& shard : shards_) {
            PARBS_ASSERT(shard->samples.empty(),
                         "sampler rows out of step across channels");
        }
        return;
    }
    const std::size_t rows = shards_.front()->samples.size();
    for (std::size_t row = 0; row < rows; ++row) {
        const DramCycle cycle = shards_.front()->samples[row].cycle;
        PARBS_ASSERT(cycle == sampler_->next_sample(),
                     "sampler cursor out of step");
        std::vector<obs::ControllerSample> assembled;
        assembled.reserve(shards_.size());
        for (auto& shard : shards_) {
            PARBS_ASSERT(shard->samples.size() == rows &&
                             shard->samples[row].cycle == cycle,
                         "sampler rows out of step across channels");
            assembled.push_back(std::move(shard->samples[row].data));
        }
        sampler_->AppendRow(cycle, std::move(assembled));
    }
    for (auto& shard : shards_) {
        shard->samples.clear();
    }
}

std::uint64_t
System::ProgressSignature() const
{
    std::uint64_t signature = 0;
    for (const auto& core : cores_) {
        signature += core->stats().instructions;
    }
    for (const auto& controller : controllers_) {
        signature += controller->total_commands_issued();
    }
    return signature;
}

void
System::CheckGlobalProgress()
{
    SettleCores();
    // Amortize the signature scan; the bound is thousands of cycles.  On
    // the sharded engine this runs during the core phase, when the workers
    // are parked — the controller counters may lag by up to one lookahead
    // window, which the 4x ratio slack in the bound absorbs.
    next_progress_check_ = cpu_cycle_ + 256;
    const std::uint64_t signature = ProgressSignature();
    if (signature != progress_signature_) {
        progress_signature_ = signature;
        progress_cycle_ = cpu_cycle_;
        return;
    }
    if (cpu_cycle_ - progress_cycle_ <= progress_bound_cpu_) {
        return;
    }
    if (AllDone()) {
        return;
    }
    std::ostringstream out;
    out << "watchdog: system deadlock: no instruction retired and no DRAM "
           "command issued for "
        << (cpu_cycle_ - progress_cycle_) << " CPU cycles (bound "
        << progress_bound_cpu_ << ") with work still pending\n";
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        out << "-- controller[" << channel << "] --\n"
            << controllers_[channel]->Diagnostics(DramNow());
    }
    DumpStats(out);
    out << EngineStateDump();
    throw WatchdogError(out.str());
}

std::string
System::EngineStateDump() const
{
    std::ostringstream out;
    out << "---- engine state ----\n"
        << "engine=" << (sharded_ ? "sharded" : "serial")
        << " channel_jobs=" << shard_jobs_
        << " lookahead_window=" << window_ << "\n"
        << "cpu_cycle=" << cpu_cycle_ << " next_tick=" << next_tick_
        << " window=[" << window_from_ << "," << window_to_
        << ") limit=" << window_limit_ << "\n";
    if (eng_ != nullptr) {
        out << "profiler_phase=" << eng_->CurrentPhaseName() << "\n";
    }
    for (std::uint32_t channel = 0; channel < shards_.size(); ++channel) {
        const ChannelShard& shard = *shards_[channel];
        out << "shard[" << channel << "] reads=" << shard.read_size
            << " writes=" << shard.write_size
            << " inbox=" << shard.inbox.size()
            << (shard.error != nullptr ? " error=pending" : "") << "\n";
    }
    return out.str();
}

json::Value
System::EngineRunJson() const
{
    PARBS_ASSERT(eng_ != nullptr,
                 "EngineRunJson requires observability.engine_profile");
    json::Value out = eng_->DeterministicJson();
    Scheduler::PickMemoCounters memo;
    for (const auto& controller : controllers_) {
        const Scheduler::PickMemoCounters counters =
            controller->scheduler().MemoCounters();
        memo.hits += counters.hits;
        memo.misses += counters.misses;
        memo.invalidations += counters.invalidations;
    }
    json::Value memo_json = json::Value::Object();
    memo_json.Set("hits", json::Value(memo.hits));
    memo_json.Set("misses", json::Value(memo.misses));
    memo_json.Set("invalidations", json::Value(memo.invalidations));
    out.Set("pick_memo", std::move(memo_json));
    return out;
}

json::Value
System::EngineEnvJson() const
{
    PARBS_ASSERT(eng_ != nullptr,
                 "EngineEnvJson requires observability.engine_profile");
    json::Value out = eng_->TimingJson();
    // Pool high waters are exact but engine-shape dependent (the sharded
    // engine's cores run a window ahead of retirement), hence env.
    json::Value hiwater = json::Value::Array();
    for (const auto& pool : pools_) {
        hiwater.Append(
            json::Value(static_cast<std::uint64_t>(pool->hiwater())));
    }
    out.Set("pool_hiwater", std::move(hiwater));
    return out;
}

void
System::DeliverNotifications()
{
    while (!notifications_.empty() &&
           notifications_.front().ready <= cpu_cycle_) {
        const PendingNotify n = notifications_.front();
        notifications_.pop_front();
        // Charge the skipped cycles while the head still stalls on it.
        Wake(n.thread);
        cores_[n.thread]->OnReadComplete(n.id);
    }
    next_notify_ready_ = notifications_.empty()
                             ? kNeverCycle
                             : notifications_.front().ready;
}

bool
System::AllDone() const
{
    if (cores_.empty()) {
        return true;
    }
    if (!notifications_.empty()) {
        return false;
    }
    for (const auto& core : cores_) {
        if (!core->Done()) {
            return false;
        }
    }
    // Drained traces may still have requests in flight.  On the sharded
    // engine the shard proxies stand in for the (lagging) controllers.
    if (sharded_) {
        return AllShardsIdle();
    }
    for (const auto& controller : controllers_) {
        if (controller->pending_reads() > 0 ||
            controller->pending_writes() > 0) {
            return false;
        }
    }
    return true;
}

std::uint32_t
System::num_cores() const
{
    return static_cast<std::uint32_t>(cores_.size());
}

Core&
System::core(ThreadId thread)
{
    PARBS_ASSERT(thread < cores_.size(), "core index out of range");
    return *cores_[thread];
}

const Core&
System::core(ThreadId thread) const
{
    PARBS_ASSERT(thread < cores_.size(), "core index out of range");
    return *cores_[thread];
}

Controller&
System::controller(std::uint32_t channel)
{
    PARBS_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

const Controller&
System::controller(std::uint32_t channel) const
{
    PARBS_ASSERT(channel < controllers_.size(), "channel out of range");
    return *controllers_[channel];
}

std::uint32_t
System::num_controllers() const
{
    return static_cast<std::uint32_t>(controllers_.size());
}

void
System::SetThreadPriority(ThreadId thread, ThreadPriority priority)
{
    for (auto& controller : controllers_) {
        controller->scheduler().SetThreadPriority(thread, priority);
    }
}

void
System::SetThreadWeight(ThreadId thread, double weight)
{
    for (auto& controller : controllers_) {
        controller->scheduler().SetThreadWeight(thread, weight);
    }
}

ThreadMeasurement
System::Measure(ThreadId thread) const
{
    PARBS_ASSERT(thread < cores_.size(), "thread out of range");
    const CoreStats& core_stats = cores_[thread]->stats();

    ThreadMeasurement out;
    out.mcpi = core_stats.Mcpi();
    out.ipc = core_stats.Ipc();
    out.ast_per_req = core_stats.AstPerRequest();
    out.mpki = core_stats.Mpki();
    out.instructions = core_stats.instructions;
    out.requests = core_stats.loads_completed;

    std::uint64_t hits = 0;
    std::uint64_t accesses = 0;
    std::uint64_t blp_sum = 0;
    std::uint64_t blp_cycles = 0;
    std::uint64_t max_latency_dram = 0;
    for (const auto& controller : controllers_) {
        const ControllerThreadStats& stats =
            controller->thread_stats(thread);
        hits += stats.read_row_hits;
        accesses += stats.read_row_hits + stats.read_row_closed +
                    stats.read_row_conflicts;
        blp_sum += stats.blp_sum;
        blp_cycles += stats.blp_cycles;
        max_latency_dram =
            std::max(max_latency_dram, stats.read_latency_max);
    }
    out.row_hit_rate = accesses == 0 ? 0.0
                                     : static_cast<double>(hits) /
                                           static_cast<double>(accesses);
    out.blp = blp_cycles == 0 ? 0.0
                              : static_cast<double>(blp_sum) /
                                    static_cast<double>(blp_cycles);
    out.worst_case_latency =
        max_latency_dram == 0
            ? 0
            : DramLatencyToCpuCycles(max_latency_dram,
                                     config_.cpu_to_dram_ratio,
                                     config_.extra_read_latency_cpu);
    return out;
}

void
System::WriteTrace(std::ostream& out, const std::string& workload_label) const
{
    PARBS_ASSERT(obs_ != nullptr,
                 "WriteTrace requires observability to be enabled");
    obs::TraceMeta meta;
    meta.scheduler = controllers_.empty()
                         ? std::string{}
                         : controllers_.front()->scheduler().name();
    meta.workload = workload_label;
    meta.cores = config_.num_cores;
    meta.seed = config_.seed;
    meta.cpu_to_dram_ratio = config_.cpu_to_dram_ratio;
    if (eng_ == nullptr) {
        obs_->WriteTrace(out, meta);
        return;
    }
    json::Value document = obs_->TraceDocument(meta);
    eng_->AppendToTraceDocument(document);
    out << document.Dump(2) << "\n";
}

void
System::DumpStats(std::ostream& out) const
{
    out << "---- system stats @ cpu cycle " << cpu_cycle_ << " ----\n";
    for (ThreadId t = 0; t < cores_.size(); ++t) {
        const CoreStats& stats = cores_[t]->stats();
        const ThreadMeasurement m = Measure(t);
        out << "core[" << t << "]"
            << " instructions=" << stats.instructions
            << " ipc=" << m.ipc
            << " mcpi=" << m.mcpi
            << " loads=" << stats.loads_completed
            << " stores=" << stats.stores_issued
            << " ast_per_req=" << m.ast_per_req
            << " rb_hit=" << m.row_hit_rate
            << " blp=" << m.blp
            << " wc_latency=" << m.worst_case_latency << "\n";
    }
    for (std::uint32_t channel = 0; channel < controllers_.size();
         ++channel) {
        const Controller& controller = *controllers_[channel];
        out << "controller[" << channel << "]"
            << " ACT=" << controller.commands_issued(
                   dram::CommandType::kActivate)
            << " PRE=" << controller.commands_issued(
                   dram::CommandType::kPrecharge)
            << " RD=" << controller.commands_issued(
                   dram::CommandType::kRead)
            << " WR=" << controller.commands_issued(
                   dram::CommandType::kWrite)
            << " REF=" << controller.commands_issued(
                   dram::CommandType::kRefresh)
            << " pending_reads=" << controller.pending_reads()
            << " pending_writes=" << controller.pending_writes() << "\n";
        const auto scheduler_stats = controller.scheduler().Stats();
        if (!scheduler_stats.empty()) {
            out << "controller[" << channel << "].scheduler("
                << controller.scheduler().name() << ")";
            for (const auto& [key, value] : scheduler_stats) {
                out << " " << key << "=" << value;
            }
            out << "\n";
        }
        if (const RasEngine* ras = controller.ras()) {
            out << "controller[" << channel << "].ras " << ras->Summary()
                << "\n";
        }
    }
}

void
System::CheckAddr(Addr addr) const
{
    // The bit-sliced mapper masks each field, so an out-of-range address
    // would silently alias a valid one — reject it instead.
    if (addr >= capacity_bytes_) {
        std::ostringstream message;
        message << "address 0x" << std::hex << addr << std::dec
                << " is outside the " << capacity_bytes_
                << "-byte memory system (check the trace against the "
                   "configured DRAM geometry)";
        PARBS_FATAL(message.str());
    }
}

RequestPtr
System::MakeRequest(ThreadId thread, Addr addr, bool is_write,
                    const dram::DecodedAddr& coords)
{
    // Allocated from the target channel's slab (mem/request_pool.hh).
    // Issue runs on the coordinator and release on the channel's worker,
    // but the phases alternate across the team barrier, so the pool is
    // never touched concurrently.
    RequestPtr request = pools_[coords.channel]->Make();
    request->id = next_request_id_++;
    request->thread = thread;
    request->addr = addr;
    request->coords = coords;
    request->is_write = is_write;
    request->arrival_cpu = cpu_cycle_;
    return request;
}

std::optional<RequestId>
System::TryIssueRead(ThreadId thread, Addr addr)
{
    CheckAddr(addr);
    const dram::DecodedAddr coords = mapper_.Decode(addr);
    if (sharded_) {
        ChannelShard& shard = *shards_[coords.channel];
        if (shard.read_size >= read_capacity_) {
            AwaitQueue(coords.channel, false, thread);
            return std::nullopt;
        }
        RequestPtr request = MakeRequest(thread, addr, false, coords);
        const RequestId id = request->id;
        shard.read_size += 1;
        shard.inbox.push_back(
            {DramNow(), arrival_seq_++, std::move(request)});
        if (eng_ != nullptr) {
            eng_->OnArrival(coords.channel);
        }
        return id;
    }
    Controller& controller = *controllers_[coords.channel];
    if (!controller.CanAcceptRead()) {
        AwaitQueue(coords.channel, false, thread);
        return std::nullopt;
    }
    RequestPtr request = MakeRequest(thread, addr, false, coords);
    const RequestId id = request->id;
    controller.Enqueue(std::move(request), DramNow());
    if (eng_ != nullptr) {
        eng_->OnArrival(coords.channel);
    }
    return id;
}

bool
System::TryIssueWrite(ThreadId thread, Addr addr)
{
    CheckAddr(addr);
    const dram::DecodedAddr coords = mapper_.Decode(addr);
    if (sharded_) {
        ChannelShard& shard = *shards_[coords.channel];
        if (shard.write_size >= write_capacity_) {
            AwaitQueue(coords.channel, true, thread);
            return false;
        }
        shard.write_size += 1;
        shard.inbox.push_back({DramNow(), arrival_seq_++,
                               MakeRequest(thread, addr, true, coords)});
        if (eng_ != nullptr) {
            eng_->OnArrival(coords.channel);
        }
        return true;
    }
    Controller& controller = *controllers_[coords.channel];
    if (!controller.CanAcceptWrite()) {
        AwaitQueue(coords.channel, true, thread);
        return false;
    }
    controller.Enqueue(MakeRequest(thread, addr, true, coords), DramNow());
    if (eng_ != nullptr) {
        eng_->OnArrival(coords.channel);
    }
    return true;
}

} // namespace parbs

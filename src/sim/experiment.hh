/**
 * @file
 * The experiment harness behind every reproduced table and figure: builds
 * systems from workload specs, runs each benchmark alone to establish the
 * slowdown baselines (cached), runs shared workloads under any scheduler,
 * and aggregates metrics across workload sets.
 */

#ifndef PARBS_SIM_EXPERIMENT_HH
#define PARBS_SIM_EXPERIMENT_HH

#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "stats/metrics.hh"
#include "trace/spec_profiles.hh"

namespace parbs {

/** Experiment-wide parameters. */
struct ExperimentConfig {
    std::uint32_t cores = 4;
    /** Simulated CPU cycles per run (shared and alone). */
    CpuCycle run_cycles = 2'000'000;
    std::uint64_t seed = 1;

    /**
     * Worker threads advancing the memory controllers inside each run
     * (SystemConfig::channel_jobs): 1 keeps the serial cycle loop, 0 means
     * one worker per channel.  Bit-identical results either way; forced to
     * 1 under PARBS_CHECK so the serial loop stays the cross-reference.
     */
    unsigned channel_jobs = 1;

    /**
     * When nonempty (or when the PARBS_TRACE environment variable is set),
     * every shared run writes a Chrome trace-event document to
     * `<path minus .json>-<workload>-<scheduler>.json`.  Alone-baseline
     * runs are never traced — they must stay byte-comparable across
     * traced and untraced experiments.
     */
    std::string trace_path;
    /** Sampler period for traced runs, in DRAM cycles (0 disables). */
    DramCycle trace_sample_interval = 1024;

    /** @ref trace_path if set, else the PARBS_TRACE environment variable. */
    std::string EffectiveTracePath() const;

    /**
     * Optional hook applied to every system configuration this experiment
     * builds (alone and shared runs alike) — the seam for parameter-sweep
     * ablations: change bank counts, row sizes, timing, core parameters...
     */
    std::function<void(SystemConfig&)> customize;

    /** Builds the system configuration for one run. */
    SystemConfig MakeSystemConfig(const SchedulerConfig& scheduler) const;
};

/** Result of one shared-workload simulation. */
struct SharedRun {
    std::string workload;
    std::string scheduler;
    std::vector<std::string> benchmarks;
    std::vector<ThreadMeasurement> shared;
    std::vector<ThreadMeasurement> alone;
    WorkloadMetrics metrics;
};

/** Aggregate over a workload set (the paper reports GMEAN columns). */
struct AggregateMetrics {
    double unfairness_gmean = 1.0;
    double weighted_speedup_gmean = 0.0;
    double hmean_speedup_gmean = 0.0;
    double ast_per_req_mean = 0.0;
    double worst_case_latency_mean = 0.0;
};

/**
 * Thread-safe memoization of alone-run baselines, shared between runner
 * copies and across ParallelFor's threads.  The first caller for a
 * benchmark computes it (outside the lock); concurrent callers for the
 * same benchmark block until the value is ready.  The measurement is a
 * pure function of (config, benchmark), so which thread computes it never
 * affects results — part of the runner determinism contract (DESIGN.md).
 */
class AloneBaselineCache {
  public:
    using ComputeFn = std::function<ThreadMeasurement()>;

    /** @return the cached measurement, computing it via @p compute once. */
    const ThreadMeasurement& GetOrCompute(const std::string& benchmark,
                                          const ComputeFn& compute);

  private:
    struct Entry {
        bool ready = false;
        bool computing = false;
        ThreadMeasurement value;
    };

    std::mutex mutex_;
    std::condition_variable ready_;
    /** Node-based map: entry references stay valid across insertions. */
    std::map<std::string, Entry> entries_;
};

/**
 * Runs alone baselines (cached) and shared workloads.
 *
 * Safe to use from multiple threads concurrently: RunShared builds an
 * independent System per call and the alone cache synchronizes itself.
 * Copies share the alone-baseline cache.
 */
class ExperimentRunner {
  public:
    explicit ExperimentRunner(const ExperimentConfig& config);

    const ExperimentConfig& config() const { return config_; }

    /**
     * Measurement of @p benchmark running alone on the baseline system
     * (FR-FCFS; the scheduler is irrelevant without contention).  Cached.
     */
    const ThreadMeasurement& AloneBaseline(const std::string& benchmark);

    /**
     * Runs @p workload under @p scheduler and joins the result with the
     * alone baselines.
     *
     * @param priorities optional per-core PAR-BS priority levels
     * @param weights optional per-core NFQ/STFM bandwidth weights
     */
    SharedRun RunShared(const WorkloadSpec& workload,
                        const SchedulerConfig& scheduler,
                        const std::vector<ThreadPriority>* priorities =
                            nullptr,
                        const std::vector<double>* weights = nullptr);

    /** Builds the trace sources for @p workload (exposed for examples). */
    std::vector<std::unique_ptr<TraceSource>>
    MakeTraces(const WorkloadSpec& workload,
               const SystemConfig& system_config) const;

    /** Geometric/arithmetic aggregation across runs of one scheduler. */
    static AggregateMetrics Aggregate(const std::vector<SharedRun>& runs);

  private:
    ExperimentConfig config_;
    std::shared_ptr<AloneBaselineCache> alone_cache_;
};

/**
 * The scheduler lineup of the comparison figures, in display order:
 * FR-FCFS, FCFS, NFQ, STFM, PAR-BS (the paper's five), plus BLISS — the
 * low-cost blacklisting foil the Pareto shootout scores against PAR-BS.
 */
std::vector<SchedulerConfig> ComparisonSchedulers();

} // namespace parbs

#endif // PARBS_SIM_EXPERIMENT_HH

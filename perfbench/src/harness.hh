/**
 * @file
 * The benchmark's four workloads, one repetition of each (untraced, or
 * traced through the seams of seams.hh), the simulated statistics that
 * check a repetition's output, and the metrics derived from repetitions.
 *
 * Simulated time is in CPU cycles of the modelled 4 GHz core.  Every
 * `*_s`, `*_ns*` and `sim_mips` figure is host time.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"
#include "sched/factory.hh"
#include "seams.hh"

namespace parbs {
class System;
}

namespace perfbench {

/** Trace population of a System-driven workload. */
enum class Population {
    /** bench_scale's mix: MPKI 40/20/10/2 by core slot. */
    kMixed,
    /** Three near compute-bound threads (MPKI 0.5) per store streamer
     *  (MPKI 8, write fraction 0.9). */
    kLightWrites,
};

/** One benchmark workload; every input derives from the run's seed. */
struct Workload {
    std::string name;
    /** paper16 runs through ExperimentRunner; the rest drive System. */
    bool experiment = false;
    Population population = Population::kMixed;
    std::uint32_t cores = 16;
    std::uint32_t channels = 4;
    parbs::SchedulerKind scheduler = parbs::SchedulerKind::kFrFcfs;
    /** SystemConfig::channel_jobs (core_jobs stays at its default). */
    unsigned channel_jobs = 1;
    /** Simulated CPU cycles of every System run of a repetition. */
    parbs::CpuCycle cycles = 0;
};

/** The four workloads, in BENCHMARK.json order. */
const std::vector<Workload>& Workloads();

/** @return the workload called @p name, or nullptr. */
const Workload* FindWorkload(const std::string& name);

/** Host time spent in each seam during one traced repetition. */
struct LayerTimes {
    std::uint64_t construct_ns = 0; ///< System::System
    std::uint64_t run_ns = 0;       ///< System::Run
    std::uint64_t alone_ns = 0;     ///< ExperimentRunner::AloneBaseline
    /** Seams called from inside System::Run only. */
    SeamCount next;
    SeamCount pick;
    SeamCount hook;
    std::uint64_t alone_runs = 0;
    std::uint64_t shared_runs = 0;
};

/** Deterministic counters the layers expose, summed over a repetition's
 *  shared Systems (alone baselines run inside ExperimentRunner and are
 *  covered only by LayerTimes::alone_ns). */
struct LayerCounts {
    std::uint64_t core_cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t mem_ops = 0;
    std::uint64_t load_stall_cycles = 0;
    std::uint64_t store_stall_cycles = 0;

    std::uint64_t dram_cycles = 0; ///< Controller ticks, all channels.
    std::uint64_t select_scans = 0;
    std::uint64_t select_skips = 0;
    std::uint64_t retire_scans = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t read_latency_sum_cpu = 0;

    std::uint64_t cmd[5] = {0, 0, 0, 0, 0}; ///< ACT, PRE, RD, WR, REF
    std::uint64_t bus_busy = 0;

    std::uint64_t memo_hits = 0;
    std::uint64_t memo_misses = 0;
    std::uint64_t memo_invalidations = 0;

    /** Sharded engine flight recorder; zero on the serial engine. */
    std::uint64_t engine_windows = 0;
    double engine_sync_s = 0.0;        ///< core_join+barrier_join+park
    double engine_participant_s = 0.0; ///< participants x run wall
    double engine_util_sum = 0.0;
    std::uint64_t engine_systems = 0;
};

/** One repetition of a workload. */
struct Rep {
    /** Simulated statistics, compared exactly across repetitions. */
    parbs::json::Value stats;
    double wall_s = 0.0;
    /** Simulated instructions retired by every System of the repetition,
     *  alone baselines included. */
    std::uint64_t instructions = 0;
    /** Instructions and CPU cycles of the shared Systems (sim_ipc). */
    std::uint64_t shared_instructions = 0;
    std::uint64_t shared_cycles = 0;
    std::uint64_t runs = 0;   ///< Simulation runs attempted.
    std::uint64_t thrown = 0; ///< Runs that threw.
    std::vector<std::string> errors;
    LayerTimes times; ///< Traced repetitions only.
    /** Empty for untraced paper16 repetitions (System is in RunShared). */
    LayerCounts counts;
};

/**
 * Runs one repetition.  @p cycle_divisor shortens every run (tests use
 * it; the benchmark uses 1).  @p channel_jobs_override, when nonzero,
 * replaces the workload's channel_jobs (the serial reference of the
 * sharded workload).
 */
Rep RunRep(const Workload& workload, std::uint64_t seed, bool traced,
           unsigned cycle_divisor = 1, unsigned channel_jobs_override = 0);

/** Per-thread core and controller statistics plus per-channel command
 *  counts of @p system: the simulated output a repetition is checked on. */
parbs::json::Value SystemStats(const parbs::System& system);

/** Host seconds to build every trace source and construct every System
 *  of one repetition, before the first simulated cycle. */
double SetupSeconds(const Workload& workload, std::uint64_t seed,
                    unsigned cycle_divisor = 1);

/**
 * @return simulation runs of @p actual (alone baselines and shared runs)
 * that differ from @p reference; a shape mismatch counts every run, and a
 * run that threw is not counted again.  An untraced paper16 run record
 * lacks `detail` (its System is inside RunShared), so `detail` is
 * compared only when both records have it.
 */
std::uint64_t CountMismatches(const parbs::json::Value& actual,
                              const parbs::json::Value& reference);

/** FNV-1a over the canonical dump of @p stats, as 16 hex digits. */
std::string Digest(const parbs::json::Value& stats);

/** PAR-BS weighted-speedup gmean over FR-FCFS's, and PAR-BS unfairness
 *  gmean, over the runs of paper16 @p stats (both 0 without them). */
void PaperResults(const parbs::json::Value& stats, double& ws_ratio,
                  double& unfairness);

/** A named metric with its unit. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Median of @p values (nonempty). */
double Median(std::vector<double> values);

/**
 * Per-layer metrics from traced repetitions and untraced repetitions of
 * the same workload (the untraced ones give sim.trace_overhead).
 */
std::vector<Metric> LayerMetrics(const Workload& workload,
                                 const std::vector<Rep>& traced,
                                 const std::vector<Rep>& untraced);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

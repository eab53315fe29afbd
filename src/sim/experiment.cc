#include "sim/experiment.hh"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <functional>

#include "common/assert.hh"
#include "trace/synthetic.hh"

namespace parbs {
namespace {

/** Deterministic per-(seed, slot, benchmark) trace seed. */
std::uint64_t
TraceSeed(std::uint64_t base, ThreadId slot, const std::string& benchmark)
{
    std::uint64_t h = base ^ 0x9e3779b97f4a7c15ULL;
    h ^= (static_cast<std::uint64_t>(slot) + 1) * 0xbf58476d1ce4e5b9ULL;
    for (char c : benchmark) {
        h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
    }
    return h;
}

/** "mix1 / PAR-BS" -> "mix1", "PAR-BS" — safe as a file-name fragment. */
std::string
SanitizeLabel(const std::string& label)
{
    std::string out;
    out.reserve(label.size());
    for (char c : label) {
        const unsigned char u = static_cast<unsigned char>(c);
        out.push_back(std::isalnum(u) != 0 ? c : '-');
    }
    return out;
}

} // namespace

std::string
ExperimentConfig::EffectiveTracePath() const
{
    if (!trace_path.empty()) {
        return trace_path;
    }
    const char* env = std::getenv("PARBS_TRACE");
    return env != nullptr ? std::string(env) : std::string{};
}

SystemConfig
ExperimentConfig::MakeSystemConfig(const SchedulerConfig& scheduler) const
{
    SystemConfig system = SystemConfig::Baseline(cores);
    system.scheduler = scheduler;
    system.seed = seed;
    system.channel_jobs = channel_jobs;
    // PARBS_CHECK=1 re-validates every DRAM command of every experiment
    // against the shadow protocol model (a model-validation run; a few
    // percent slower, so opt-in from the environment).
    const char* check = std::getenv("PARBS_CHECK");
    if (check != nullptr && check[0] != '\0' && check[0] != '0') {
        // Validation runs stay on the serial loop: it is the reference the
        // sharded engine is verified against, and the checker's value is
        // in re-deriving, not re-parallelizing, the command stream.
        system.channel_jobs = 1;
        system.controller.protocol_check = true;
        // The skip-ahead analogue of the protocol check: every skipped
        // cycle is re-scanned to prove no ready command was skippable.
        system.controller.verify_fast_path = true;
        // And its core-side twin: every core ticks every cycle, proving
        // each cycle the event-driven sweep skipped changed nothing.
        system.verify_core_fast_path = true;
        // And the selection analogue: every pick made by the indexed
        // per-bank path is cross-checked against the full-scan path.
        system.controller.verify_indexed_selection = true;
        // Above 32 cores the double selection dominates validation wall-
        // clock, so sample every 61st decision there (61 is prime, so the
        // sample never locks onto a periodic scheduler pattern).  Sound:
        // a divergence is a deterministic function of controller state and
        // persists once it appears, so sampling delays detection by a
        // bounded number of decisions but cannot miss a diverged run.
        system.controller.verify_sample_period = cores > 32 ? 61 : 1;
    }
    if (!EffectiveTracePath().empty()) {
        system.observability.trace = true;
        system.observability.sample_interval = trace_sample_interval;
    }
    if (customize) {
        customize(system);
    }
    return system;
}

const ThreadMeasurement&
AloneBaselineCache::GetOrCompute(const std::string& benchmark,
                                 const ComputeFn& compute)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Entry& entry = entries_[benchmark];
    if (entry.ready) {
        return entry.value;
    }
    if (entry.computing) {
        ready_.wait(lock, [&entry] { return entry.ready; });
        return entry.value;
    }
    entry.computing = true;
    lock.unlock();
    // The simulation runs outside the lock so that baselines for
    // *different* benchmarks compute concurrently; only same-benchmark
    // callers block, and a compute failure would abort (PARBS_ASSERT
    // semantics), so waiters cannot be stranded.
    ThreadMeasurement value = compute();
    lock.lock();
    entry.value = value;
    entry.ready = true;
    ready_.notify_all();
    return entry.value;
}

ExperimentRunner::ExperimentRunner(const ExperimentConfig& config)
    : config_(config), alone_cache_(std::make_shared<AloneBaselineCache>())
{
}

std::vector<std::unique_ptr<TraceSource>>
ExperimentRunner::MakeTraces(const WorkloadSpec& workload,
                             const SystemConfig& system_config) const
{
    dram::AddressMapper mapper(system_config.geometry,
                               system_config.xor_bank_hash);
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.reserve(workload.benchmarks.size());
    for (ThreadId slot = 0; slot < workload.benchmarks.size(); ++slot) {
        const BenchmarkProfile& profile =
            FindProfile(workload.benchmarks[slot]);
        traces.push_back(std::make_unique<SyntheticTraceSource>(
            profile.synth, mapper, slot, system_config.num_cores,
            TraceSeed(config_.seed, slot, workload.benchmarks[slot])));
    }
    return traces;
}

const ThreadMeasurement&
ExperimentRunner::AloneBaseline(const std::string& benchmark)
{
    return alone_cache_->GetOrCompute(benchmark, [this, &benchmark] {
        SchedulerConfig scheduler;
        scheduler.kind = SchedulerKind::kFrFcfs;
        SystemConfig system_config = config_.MakeSystemConfig(scheduler);
        // Alone baselines are never traced: the cached measurement must be
        // identical whether or not the experiment around it is traced.
        system_config.observability = {};

        WorkloadSpec solo;
        solo.name = "alone-" + benchmark;
        solo.benchmarks = {benchmark};
        System system(system_config, MakeTraces(solo, system_config));
        system.Run(config_.run_cycles);
        return system.Measure(0);
    });
}

SharedRun
ExperimentRunner::RunShared(const WorkloadSpec& workload,
                            const SchedulerConfig& scheduler,
                            const std::vector<ThreadPriority>* priorities,
                            const std::vector<double>* weights)
{
    PARBS_ASSERT(workload.benchmarks.size() <= config_.cores,
                 "workload larger than the configured core count");

    const SystemConfig system_config = config_.MakeSystemConfig(scheduler);
    System system(system_config, MakeTraces(workload, system_config));

    if (priorities != nullptr) {
        PARBS_ASSERT(priorities->size() == workload.benchmarks.size(),
                     "priorities must match workload size");
        for (ThreadId t = 0; t < priorities->size(); ++t) {
            system.SetThreadPriority(t, (*priorities)[t]);
        }
    }
    if (weights != nullptr) {
        PARBS_ASSERT(weights->size() == workload.benchmarks.size(),
                     "weights must match workload size");
        for (ThreadId t = 0; t < weights->size(); ++t) {
            system.SetThreadWeight(t, (*weights)[t]);
        }
    }

    system.Run(config_.run_cycles);

    SharedRun run;
    run.workload = workload.name;
    run.scheduler = SchedulerConfigName(scheduler);
    run.benchmarks = workload.benchmarks;

    const std::string trace_path = config_.EffectiveTracePath();
    if (!trace_path.empty()) {
        // One file per (workload, scheduler) so a lineup sweep under a
        // single PARBS_TRACE value never overwrites itself.
        std::string stem = trace_path;
        const std::string suffix = ".json";
        if (stem.size() >= suffix.size() &&
            stem.compare(stem.size() - suffix.size(), suffix.size(),
                         suffix) == 0) {
            stem.erase(stem.size() - suffix.size());
        }
        const std::string file = stem + "-" + SanitizeLabel(run.workload) +
                                 "-" + SanitizeLabel(run.scheduler) + ".json";
        std::ofstream out(file);
        if (!out) {
            PARBS_FATAL("cannot open trace output file: " + file);
        }
        system.WriteTrace(out, run.workload);
    }
    for (ThreadId t = 0; t < workload.benchmarks.size(); ++t) {
        run.shared.push_back(system.Measure(t));
        run.alone.push_back(AloneBaseline(workload.benchmarks[t]));
    }
    run.metrics = ComputeMetrics(run.shared, run.alone);
    return run;
}

AggregateMetrics
ExperimentRunner::Aggregate(const std::vector<SharedRun>& runs)
{
    PARBS_ASSERT(!runs.empty(), "aggregate over no runs");
    std::vector<double> unfairness;
    std::vector<double> weighted;
    std::vector<double> hmean;
    double ast_sum = 0.0;
    double wc_sum = 0.0;
    for (const SharedRun& run : runs) {
        unfairness.push_back(run.metrics.unfairness);
        weighted.push_back(run.metrics.weighted_speedup);
        hmean.push_back(run.metrics.hmean_speedup);
        ast_sum += run.metrics.avg_ast_per_req;
        wc_sum += static_cast<double>(run.metrics.worst_case_latency);
    }
    AggregateMetrics out;
    out.unfairness_gmean = GeometricMean(unfairness);
    out.weighted_speedup_gmean = GeometricMean(weighted);
    out.hmean_speedup_gmean = GeometricMean(hmean);
    out.ast_per_req_mean = ast_sum / static_cast<double>(runs.size());
    out.worst_case_latency_mean = wc_sum / static_cast<double>(runs.size());
    return out;
}

std::vector<SchedulerConfig>
ComparisonSchedulers()
{
    std::vector<SchedulerConfig> out(6);
    out[0].kind = SchedulerKind::kFrFcfs;
    out[1].kind = SchedulerKind::kFcfs;
    out[2].kind = SchedulerKind::kNfq;
    out[3].kind = SchedulerKind::kStfm;
    out[4].kind = SchedulerKind::kParBs;
    out[5].kind = SchedulerKind::kBliss;
    return out;
}

} // namespace parbs

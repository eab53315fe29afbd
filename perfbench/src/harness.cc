#include "harness.hh"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <memory>
#include <set>

#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"
#include "stats/metrics.hh"
#include "trace/synthetic.hh"

namespace perfbench {
namespace {

using parbs::json::Value;

const std::vector<Workload>&
Table()
{
    static const std::vector<Workload> table = [] {
        std::vector<Workload> out(4);
        out[0].name = "paper16";
        out[0].experiment = true;
        out[0].cores = 16;
        out[0].channels = 4;
        out[0].cycles = 100'000;

        out[1].name = "scale64";
        out[1].cores = 64;
        out[1].channels = 8;
        out[1].scheduler = parbs::SchedulerKind::kFrFcfs;
        out[1].cycles = 300'000;

        out[2] = out[1];
        out[2].name = "scale64_sharded";
        out[2].channel_jobs = 2;

        out[3].name = "light16_writes";
        out[3].population = Population::kLightWrites;
        out[3].cores = 16;
        out[3].channels = 4;
        out[3].scheduler = parbs::SchedulerKind::kParBs;
        out[3].cycles = 2'000'000;
        return out;
    }();
    return table;
}

/** Trace statistics of core @p slot (see Population). */
parbs::SyntheticParams
SlotParams(const Workload& workload, parbs::ThreadId slot)
{
    parbs::SyntheticParams params;
    if (workload.population == Population::kLightWrites) {
        if (slot % 4 == 3) {
            params.mpki = 8.0;
            params.write_fraction = 0.9;
        } else {
            params.mpki = 0.5;
        }
        return params;
    }
    static constexpr double kMpki[4] = {40.0, 20.0, 10.0, 2.0};
    params.mpki = kMpki[slot % 4];
    return params;
}

parbs::SystemConfig
DirectConfig(const Workload& workload, std::uint64_t seed,
             unsigned channel_jobs)
{
    parbs::SystemConfig config =
        parbs::SystemConfig::Baseline(workload.cores, workload.channels);
    config.scheduler.kind = workload.scheduler;
    config.seed = seed;
    config.channel_jobs = channel_jobs;
    return config;
}

std::vector<std::unique_ptr<parbs::TraceSource>>
DirectTraces(const Workload& workload, const parbs::SystemConfig& config,
             std::uint64_t seed)
{
    parbs::dram::AddressMapper mapper(config.geometry, config.xor_bank_hash);
    std::vector<std::unique_ptr<parbs::TraceSource>> traces;
    traces.reserve(config.num_cores);
    for (parbs::ThreadId t = 0; t < config.num_cores; ++t) {
        traces.push_back(std::make_unique<parbs::SyntheticTraceSource>(
            SlotParams(workload, t), mapper, t, config.num_cores,
            seed * 1000 + t));
    }
    return traces;
}

parbs::ExperimentConfig
PaperConfig(const Workload& workload, std::uint64_t seed,
            unsigned cycle_divisor)
{
    parbs::ExperimentConfig config;
    config.cores = workload.cores;
    config.run_cycles = workload.cycles / cycle_divisor;
    config.seed = seed;
    config.channel_jobs = workload.channel_jobs;
    return config;
}

/** Distinct benchmarks of the Figure 10 mixes, in first-use order. */
std::vector<std::string>
PaperBenchmarks()
{
    std::vector<std::string> out;
    std::set<std::string> seen;
    for (const parbs::WorkloadSpec& mix : parbs::SixteenCoreSamples()) {
        for (const std::string& benchmark : mix.benchmarks) {
            if (seen.insert(benchmark).second) {
                out.push_back(benchmark);
            }
        }
    }
    return out;
}

Value
MeasurementJson(const parbs::ThreadMeasurement& m)
{
    Value out = Value::Object();
    out.Set("instructions", m.instructions);
    out.Set("requests", m.requests);
    out.Set("ipc", m.ipc);
    out.Set("mcpi", m.mcpi);
    out.Set("ast_per_req", m.ast_per_req);
    out.Set("row_hit_rate", m.row_hit_rate);
    out.Set("blp", m.blp);
    out.Set("mpki", m.mpki);
    out.Set("worst_case_latency", m.worst_case_latency);
    return out;
}

} // namespace

Value
SystemStats(const parbs::System& system)
{
    Value threads = Value::Array();
    for (parbs::ThreadId t = 0; t < system.num_cores(); ++t) {
        const parbs::CoreStats& core = system.core(t).stats();
        parbs::ControllerThreadStats mem;
        for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
            const parbs::ControllerThreadStats& s =
                system.controller(c).thread_stats(t);
            mem.reads_completed += s.reads_completed;
            mem.writes_completed += s.writes_completed;
            mem.read_row_hits += s.read_row_hits;
            mem.read_row_closed += s.read_row_closed;
            mem.read_row_conflicts += s.read_row_conflicts;
            mem.read_latency_sum += s.read_latency_sum;
            mem.read_latency_max =
                std::max(mem.read_latency_max, s.read_latency_max);
            mem.blp_sum += s.blp_sum;
            mem.blp_cycles += s.blp_cycles;
        }
        Value thread = Value::Object();
        thread.Set("instructions", core.instructions);
        thread.Set("cycles", core.cycles);
        thread.Set("load_stall_cycles", core.load_stall_cycles);
        thread.Set("store_stall_cycles", core.store_stall_cycles);
        thread.Set("loads_issued", core.loads_issued);
        thread.Set("loads_completed", core.loads_completed);
        thread.Set("stores_issued", core.stores_issued);
        thread.Set("reads", mem.reads_completed);
        thread.Set("writes", mem.writes_completed);
        thread.Set("row_hits", mem.read_row_hits);
        thread.Set("row_closed", mem.read_row_closed);
        thread.Set("row_conflicts", mem.read_row_conflicts);
        thread.Set("read_latency_sum", mem.read_latency_sum);
        thread.Set("read_latency_max", mem.read_latency_max);
        thread.Set("blp_sum", mem.blp_sum);
        thread.Set("blp_cycles", mem.blp_cycles);
        threads.Append(std::move(thread));
    }
    static constexpr const char* kCommands[5] = {"act", "pre", "rd", "wr",
                                                 "ref"};
    Value channels = Value::Array();
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        const parbs::Controller& controller = system.controller(c);
        Value channel = Value::Object();
        for (int type = 0; type < 5; ++type) {
            channel.Set(kCommands[type],
                        controller.commands_issued(
                            static_cast<parbs::dram::CommandType>(type)));
        }
        channel.Set("bus_busy", controller.channel().bus_busy_cycles());
        channels.Append(std::move(channel));
    }
    Value out = Value::Object();
    out.Set("threads", std::move(threads));
    out.Set("channels", std::move(channels));
    return out;
}

namespace {

/** Adds the engine flight recorder's window count and phase times. */
void
CountEngine(const parbs::System& system, double run_s, LayerCounts& counts)
{
    const Value run = system.EngineRunJson();
    const Value env = system.EngineEnvJson();
    counts.engine_windows +=
        static_cast<std::uint64_t>(run.Find("windows")->AsNumber());
    for (const Value& phase : env.Find("phases")->items()) {
        const std::string& name = phase.Find("phase")->AsString();
        if (name == "core_join" || name == "barrier_join" ||
            name == "worker_park") {
            counts.engine_sync_s += phase.Find("seconds")->AsNumber();
        }
    }
    counts.engine_participant_s +=
        env.Find("participants")->AsNumber() * run_s;
    counts.engine_util_sum += env.Find("worker_utilization")->AsNumber();
    counts.engine_systems += 1;
}

void
CountLayers(const parbs::System& system, std::uint64_t ratio,
            LayerCounts& counts)
{
    for (parbs::ThreadId t = 0; t < system.num_cores(); ++t) {
        const parbs::CoreStats& core = system.core(t).stats();
        counts.core_cycles += core.cycles;
        counts.instructions += core.instructions;
        counts.mem_ops += core.loads_issued + core.stores_issued;
        counts.load_stall_cycles += core.load_stall_cycles;
        counts.store_stall_cycles += core.store_stall_cycles;
    }
    for (std::uint32_t c = 0; c < system.num_controllers(); ++c) {
        const parbs::Controller& controller = system.controller(c);
        const parbs::Controller::FastPathStats& fast =
            controller.fast_path_stats();
        counts.dram_cycles += system.now() / ratio;
        counts.select_scans += fast.select_scans;
        counts.select_skips += fast.select_skips;
        counts.retire_scans += fast.retire_scans;
        for (parbs::ThreadId t = 0; t < system.num_cores(); ++t) {
            const parbs::ControllerThreadStats& s =
                controller.thread_stats(t);
            counts.reads += s.reads_completed;
            counts.writes += s.writes_completed;
            counts.read_latency_sum_cpu += s.read_latency_sum * ratio;
        }
        for (int type = 0; type < 5; ++type) {
            counts.cmd[type] += controller.commands_issued(
                static_cast<parbs::dram::CommandType>(type));
        }
        counts.bus_busy += controller.channel().bus_busy_cycles();
        const parbs::Scheduler::PickMemoCounters memo =
            controller.scheduler().MemoCounters();
        counts.memo_hits += memo.hits;
        counts.memo_misses += memo.misses;
        counts.memo_invalidations += memo.invalidations;
    }
}

/** Wraps every trace source; @p out keeps non-owning handles. */
std::vector<std::unique_ptr<parbs::TraceSource>>
WrapTraces(std::vector<std::unique_ptr<parbs::TraceSource>> traces,
           std::vector<TimedTraceSource*>& out)
{
    std::vector<std::unique_ptr<parbs::TraceSource>> wrapped;
    wrapped.reserve(traces.size());
    for (auto& trace : traces) {
        auto timed = std::make_unique<TimedTraceSource>(std::move(trace));
        out.push_back(timed.get());
        wrapped.push_back(std::move(timed));
    }
    return wrapped;
}

/** Installs the scheduler decorator through scheduler_factory.  The
 *  factory runs only inside the System constructor, while @p out lives. */
void
WrapScheduler(parbs::SystemConfig& config, std::vector<TimedScheduler*>& out)
{
    const parbs::SchedulerConfig inner = config.scheduler;
    config.scheduler_factory = [inner, &out] {
        auto timed =
            std::make_unique<TimedScheduler>(parbs::MakeScheduler(inner));
        out.push_back(timed.get());
        return std::unique_ptr<parbs::Scheduler>(std::move(timed));
    };
}

/** The three seams' totals over the decorators of one System. */
struct SeamSnapshot {
    SeamCount next;
    SeamCount pick;
    SeamCount hook;

    static SeamSnapshot Take(const std::vector<TimedTraceSource*>& traces,
                             const std::vector<TimedScheduler*>& schedulers)
    {
        SeamSnapshot out;
        for (const TimedTraceSource* trace : traces) {
            out.next += trace->next();
        }
        for (const TimedScheduler* scheduler : schedulers) {
            out.pick += scheduler->pick();
            out.hook += scheduler->hook();
        }
        return out;
    }
};

/**
 * Constructs and runs one System, timing the seams when @p traced.
 * @return the System (still alive, so its statistics can be read).
 */
std::unique_ptr<parbs::System>
RunSystem(parbs::SystemConfig config,
          std::vector<std::unique_ptr<parbs::TraceSource>> traces,
          parbs::CpuCycle cycles, bool traced, Rep& rep)
{
    std::vector<TimedTraceSource*> timed_traces;
    std::vector<TimedScheduler*> timed_schedulers;
    if (traced) {
        traces = WrapTraces(std::move(traces), timed_traces);
        WrapScheduler(config, timed_schedulers);
        config.observability.engine_profile = config.channel_jobs != 1;
    }
    const Clock::time_point built = Clock::now();
    auto system =
        std::make_unique<parbs::System>(config, std::move(traces));
    const Clock::time_point constructed = Clock::now();
    const SeamSnapshot before =
        SeamSnapshot::Take(timed_traces, timed_schedulers);
    const Clock::time_point started = Clock::now();
    system->Run(cycles);
    const Clock::time_point finished = Clock::now();
    if (traced) {
        const SeamSnapshot after =
            SeamSnapshot::Take(timed_traces, timed_schedulers);
        rep.times.construct_ns += ElapsedNs(built, constructed);
        rep.times.run_ns += ElapsedNs(started, finished);
        rep.times.next += after.next - before.next;
        rep.times.pick += after.pick - before.pick;
        rep.times.hook += after.hook - before.hook;
        if (system->sharded()) {
            CountEngine(*system,
                        static_cast<double>(ElapsedNs(started, finished)) *
                            1e-9,
                        rep.counts);
        }
    }
    CountLayers(*system, config.cpu_to_dram_ratio, rep.counts);
    for (parbs::ThreadId t = 0; t < system->num_cores(); ++t) {
        rep.shared_instructions += system->core(t).stats().instructions;
    }
    rep.shared_cycles += system->now();
    return system;
}

Value
ErrorRecord(const std::string& what)
{
    Value out = Value::Object();
    out.Set("error", what);
    return out;
}

void
RunDirectRep(const Workload& workload, std::uint64_t seed, bool traced,
             unsigned cycle_divisor, unsigned channel_jobs, Rep& rep)
{
    Value runs = Value::Array();
    rep.runs += 1;
    try {
        const parbs::SystemConfig config =
            DirectConfig(workload, seed, channel_jobs);
        auto system = RunSystem(config, DirectTraces(workload, config, seed),
                                workload.cycles / cycle_divisor, traced, rep);
        Value run = Value::Object();
        run.Set("detail", SystemStats(*system));
        runs.Append(std::move(run));
    } catch (const std::exception& error) {
        rep.thrown += 1;
        rep.errors.push_back(error.what());
        runs.Append(ErrorRecord(error.what()));
    }
    rep.instructions = rep.shared_instructions;
    rep.stats.Set("alone", Value::Array());
    rep.stats.Set("runs", std::move(runs));
}

/**
 * paper16: alone baselines first (the untraced RunShared would compute
 * them lazily, in the same order), then the mixes under the lineup.  The
 * untraced repetition calls RunShared as users do; the traced one opens
 * RunShared into its public parts (MakeSystemConfig, MakeTraces, System,
 * Run, Measure, AloneBaseline, ComputeMetrics) so System and the traces
 * can be wrapped, and its records must equal RunShared's.
 */
void
RunPaperRep(const Workload& workload, std::uint64_t seed, bool traced,
            unsigned cycle_divisor, Rep& rep)
{
    parbs::ExperimentRunner runner(PaperConfig(workload, seed, cycle_divisor));
    const auto mixes = parbs::SixteenCoreSamples();
    const auto lineup = parbs::ComparisonSchedulers();

    Value alone = Value::Array();
    bool alone_ok = true;
    for (const std::string& benchmark : PaperBenchmarks()) {
        rep.runs += 1;
        Value record = Value::Object();
        record.Set("benchmark", benchmark);
        try {
            const Clock::time_point start = Clock::now();
            const parbs::ThreadMeasurement& m =
                runner.AloneBaseline(benchmark);
            rep.times.alone_ns += ElapsedNs(start, Clock::now());
            rep.times.alone_runs += 1;
            rep.instructions += m.instructions;
            record.Set("alone", MeasurementJson(m));
        } catch (const std::exception& error) {
            // A throwing baseline stays "computing" in the runner's cache,
            // so nothing that needs it may run in this repetition.
            alone_ok = false;
            rep.thrown += 1;
            rep.errors.push_back(error.what());
            record.Set("error", error.what());
        }
        alone.Append(std::move(record));
    }

    Value runs = Value::Array();
    for (const parbs::WorkloadSpec& mix : mixes) {
        for (const parbs::SchedulerConfig& scheduler : lineup) {
            rep.runs += 1;
            if (!alone_ok) {
                rep.thrown += 1;
                runs.Append(ErrorRecord("alone baseline failed"));
                continue;
            }
            try {
                parbs::SharedRun result;
                Value detail;
                if (traced) {
                    const parbs::SystemConfig config =
                        runner.config().MakeSystemConfig(scheduler);
                    auto system = RunSystem(
                        config, runner.MakeTraces(mix, config),
                        runner.config().run_cycles, true, rep);
                    result.workload = mix.name;
                    result.scheduler = parbs::SchedulerConfigName(scheduler);
                    for (parbs::ThreadId t = 0; t < mix.benchmarks.size();
                         ++t) {
                        result.shared.push_back(system->Measure(t));
                        result.alone.push_back(
                            runner.AloneBaseline(mix.benchmarks[t]));
                    }
                    result.metrics =
                        parbs::ComputeMetrics(result.shared, result.alone);
                    detail = SystemStats(*system);
                } else {
                    result = runner.RunShared(mix, scheduler);
                    for (const auto& m : result.shared) {
                        rep.shared_instructions += m.instructions;
                    }
                    rep.shared_cycles += runner.config().run_cycles;
                }
                rep.times.shared_runs += 1;
                Value record = Value::Object();
                record.Set("workload", result.workload);
                record.Set("scheduler", result.scheduler);
                Value threads = Value::Array();
                for (const auto& m : result.shared) {
                    threads.Append(MeasurementJson(m));
                }
                record.Set("threads", std::move(threads));
                record.Set("ws", result.metrics.weighted_speedup);
                record.Set("unfairness", result.metrics.unfairness);
                record.Set("hmean", result.metrics.hmean_speedup);
                if (!detail.is_null()) {
                    record.Set("detail", std::move(detail));
                }
                runs.Append(std::move(record));
            } catch (const std::exception& error) {
                rep.thrown += 1;
                rep.errors.push_back(error.what());
                runs.Append(ErrorRecord(error.what()));
            }
        }
    }
    rep.instructions += rep.shared_instructions;
    rep.stats.Set("alone", std::move(alone));
    rep.stats.Set("runs", std::move(runs));
}

Value
WithoutDetail(const Value& record)
{
    if (record.kind() != Value::Kind::kObject) {
        return record;
    }
    Value out = Value::Object();
    for (const auto& [key, value] : record.members()) {
        if (key != "detail") {
            out.Set(key, value);
        }
    }
    return out;
}

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
Ratio(std::uint64_t num, std::uint64_t den)
{
    return Ratio(static_cast<double>(num), static_cast<double>(den));
}

/** The simulation-run records of @p stats, one per run. */
std::vector<Value>
RunRecords(const Value& stats)
{
    std::vector<Value> out;
    for (const char* key : {"alone", "runs"}) {
        const Value* list = stats.Find(key);
        if (list != nullptr) {
            out.insert(out.end(), list->items().begin(), list->items().end());
        }
    }
    return out;
}

bool
RecordsEqual(const Value& a, const Value& b)
{
    const bool a_detail =
        a.kind() == Value::Kind::kObject && a.Find("detail") != nullptr;
    const bool b_detail =
        b.kind() == Value::Kind::kObject && b.Find("detail") != nullptr;
    if (a_detail == b_detail) {
        return a == b;
    }
    return WithoutDetail(a) == WithoutDetail(b);
}

} // namespace

const std::vector<Workload>&
Workloads()
{
    return Table();
}

const Workload*
FindWorkload(const std::string& name)
{
    for (const Workload& workload : Table()) {
        if (workload.name == name) {
            return &workload;
        }
    }
    return nullptr;
}

Rep
RunRep(const Workload& workload, std::uint64_t seed, bool traced,
       unsigned cycle_divisor, unsigned channel_jobs_override)
{
    Rep rep;
    rep.stats = Value::Object();
    const Clock::time_point start = Clock::now();
    if (workload.experiment) {
        RunPaperRep(workload, seed, traced, cycle_divisor, rep);
    } else {
        RunDirectRep(workload, seed, traced, cycle_divisor,
                     channel_jobs_override != 0 ? channel_jobs_override
                                                : workload.channel_jobs,
                     rep);
    }
    rep.wall_s = static_cast<double>(ElapsedNs(start, Clock::now())) * 1e-9;
    return rep;
}

double
SetupSeconds(const Workload& workload, std::uint64_t seed,
             unsigned cycle_divisor)
{
    std::uint64_t ns = 0;
    auto build = [&ns](const parbs::SystemConfig& config, auto make_traces) {
        const Clock::time_point start = Clock::now();
        parbs::System system(config, make_traces());
        ns += ElapsedNs(start, Clock::now());
    };
    if (!workload.experiment) {
        const parbs::SystemConfig config =
            DirectConfig(workload, seed, workload.channel_jobs);
        build(config, [&] { return DirectTraces(workload, config, seed); });
        return static_cast<double>(ns) * 1e-9;
    }
    const parbs::ExperimentRunner runner(
        PaperConfig(workload, seed, cycle_divisor));
    parbs::SchedulerConfig alone_scheduler;
    alone_scheduler.kind = parbs::SchedulerKind::kFrFcfs;
    for (const std::string& benchmark : PaperBenchmarks()) {
        const parbs::SystemConfig config =
            runner.config().MakeSystemConfig(alone_scheduler);
        parbs::WorkloadSpec solo;
        solo.name = "alone-" + benchmark;
        solo.benchmarks = {benchmark};
        build(config, [&] { return runner.MakeTraces(solo, config); });
    }
    for (const parbs::WorkloadSpec& mix : parbs::SixteenCoreSamples()) {
        for (const parbs::SchedulerConfig& scheduler :
             parbs::ComparisonSchedulers()) {
            const parbs::SystemConfig config =
                runner.config().MakeSystemConfig(scheduler);
            build(config, [&] { return runner.MakeTraces(mix, config); });
        }
    }
    return static_cast<double>(ns) * 1e-9;
}

std::uint64_t
CountMismatches(const Value& actual, const Value& reference)
{
    const std::vector<Value> a = RunRecords(actual);
    const std::vector<Value> r = RunRecords(reference);
    if (a.size() != r.size()) {
        return std::max(a.size(), r.size());
    }
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        // A run that threw is already counted as failed.
        if (a[i].Find("error") == nullptr && !RecordsEqual(a[i], r[i])) {
            mismatches += 1;
        }
    }
    return mismatches;
}

std::string
Digest(const Value& stats)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : stats.Dump()) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
}

double
Median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<Metric>
LayerMetrics(const Workload& workload, const std::vector<Rep>& traced,
             const std::vector<Rep>& untraced)
{
    auto median_of = [&traced](auto field) {
        std::vector<double> values;
        for (const Rep& rep : traced) {
            values.push_back(field(rep));
        }
        return Median(values);
    };
    auto seconds = [](std::uint64_t ns) {
        return static_cast<double>(ns) * 1e-9;
    };
    std::vector<double> untraced_wall;
    for (const Rep& rep : untraced) {
        untraced_wall.push_back(rep.wall_s);
    }

    const LayerCounts& c = traced.front().counts;
    const LayerTimes& t = traced.front().times;
    const double run_s = median_of([&](const Rep& r) {
        return seconds(r.times.run_ns);
    });
    const double self_s = median_of([&](const Rep& r) {
        return seconds(r.times.run_ns - r.times.next.ns - r.times.pick.ns -
                       r.times.hook.ns);
    });
    const double next_s =
        median_of([&](const Rep& r) { return seconds(r.times.next.ns); });
    const double pick_s =
        median_of([&](const Rep& r) { return seconds(r.times.pick.ns); });
    const double hook_s =
        median_of([&](const Rep& r) { return seconds(r.times.hook.ns); });

    double ws_ratio = 0.0;
    double unfairness = 0.0;
    if (workload.experiment) {
        PaperResults(traced.front().stats, ws_ratio, unfairness);
    }

    auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    const std::uint64_t cas = c.cmd[2] + c.cmd[3];
    return {
        {"sim.construct_s",
         median_of([&](const Rep& r) { return seconds(r.times.construct_ns); }),
         "s"},
        {"sim.run_s", run_s, "s"},
        {"sim.run_self_s", self_s, "s"},
        {"sim.self_ns_per_core_cycle",
         Ratio(self_s * 1e9, count(c.core_cycles)), "ns"},
        {"sim.trace_overhead",
         Ratio(median_of([](const Rep& r) { return r.wall_s; }),
               Median(untraced_wall)),
         "ratio"},
        {"sim.engine.windows", count(c.engine_windows), "count"},
        {"sim.engine.sync_frac", Ratio(c.engine_sync_s, c.engine_participant_s),
         "ratio"},
        {"sim.engine.worker_util",
         Ratio(c.engine_util_sum, count(c.engine_systems)), "ratio"},
        {"experiment.alone_s",
         median_of([&](const Rep& r) { return seconds(r.times.alone_ns); }),
         "s"},
        {"experiment.alone_runs", count(t.alone_runs), "count"},
        {"experiment.shared_runs", count(t.shared_runs), "count"},
        {"experiment.parbs_ws_ratio", ws_ratio, "ratio"},
        {"experiment.parbs_unfairness", unfairness, "ratio"},
        {"trace.next_calls", count(t.next.calls), "count"},
        {"trace.next_s", next_s, "s"},
        {"trace.ns_per_next", Ratio(next_s * 1e9, count(t.next.calls)), "ns"},
        {"cpu.core_cycles", count(c.core_cycles), "cycles"},
        {"cpu.instructions", count(c.instructions), "count"},
        {"cpu.mem_ops", count(c.mem_ops), "count"},
        {"cpu.load_stall_frac", Ratio(c.load_stall_cycles, c.core_cycles),
         "ratio"},
        {"cpu.store_stall_frac", Ratio(c.store_stall_cycles, c.core_cycles),
         "ratio"},
        {"mem.dram_cycles", count(c.dram_cycles), "cycles"},
        {"mem.select_scans", count(c.select_scans), "count"},
        {"mem.skip_frac",
         Ratio(c.select_skips, c.select_scans + c.select_skips), "ratio"},
        {"mem.retire_scans", count(c.retire_scans), "count"},
        {"mem.reads", count(c.reads), "count"},
        {"mem.writes", count(c.writes), "count"},
        {"mem.write_share", Ratio(c.writes, c.reads + c.writes), "ratio"},
        {"mem.read_latency_mean", Ratio(c.read_latency_sum_cpu, c.reads),
         "cycles"},
        {"sched.pick_calls", count(t.pick.calls), "count"},
        {"sched.pick_s", pick_s, "s"},
        {"sched.ns_per_pick", Ratio(pick_s * 1e9, count(t.pick.calls)), "ns"},
        {"sched.hook_calls", count(t.hook.calls), "count"},
        {"sched.hook_s", hook_s, "s"},
        {"sched.memo_hit_rate",
         Ratio(c.memo_hits, c.memo_hits + c.memo_misses), "ratio"},
        {"sched.memo_invalidations", count(c.memo_invalidations), "count"},
        {"dram.act", count(c.cmd[0]), "count"},
        {"dram.pre", count(c.cmd[1]), "count"},
        {"dram.rd", count(c.cmd[2]), "count"},
        {"dram.wr", count(c.cmd[3]), "count"},
        {"dram.ref", count(c.cmd[4]), "count"},
        {"dram.row_hit_rate",
         cas == 0 ? 0.0 : 1.0 - Ratio(c.cmd[0], cas), "ratio"},
        {"dram.bus_util", Ratio(c.bus_busy, c.dram_cycles), "ratio"},
    };
}

void
PaperResults(const Value& stats, double& ws_ratio, double& unfairness)
{
    std::vector<double> parbs_ws;
    std::vector<double> frfcfs_ws;
    std::vector<double> parbs_unfairness;
    for (const Value& run : stats.Find("runs")->items()) {
        const Value* scheduler = run.Find("scheduler");
        if (scheduler == nullptr) {
            continue;
        }
        const double ws = run.Find("ws")->AsNumber();
        if (scheduler->AsString() == "PAR-BS") {
            parbs_ws.push_back(ws);
            parbs_unfairness.push_back(run.Find("unfairness")->AsNumber());
        } else if (scheduler->AsString() == "FR-FCFS") {
            frfcfs_ws.push_back(ws);
        }
    }
    ws_ratio = 0.0;
    unfairness = 0.0;
    if (!parbs_ws.empty() && !frfcfs_ws.empty()) {
        ws_ratio = parbs::GeometricMean(parbs_ws) /
                   parbs::GeometricMean(frfcfs_ws);
        unfairness = parbs::GeometricMean(parbs_unfairness);
    }
}

} // namespace perfbench

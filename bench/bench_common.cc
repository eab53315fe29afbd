#include "bench_common.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>

namespace parbs::bench {
namespace {

/** argv[0] without directories — the "binary" field in JSON output. */
std::string
BinaryName(const char* argv0)
{
    std::string name = argv0 != nullptr ? argv0 : "bench";
    const std::size_t slash = name.find_last_of('/');
    if (slash != std::string::npos) {
        name.erase(0, slash + 1);
    }
    return name;
}

} // namespace

Options
ParseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
            options.cycles = 500'000;
        } else if (arg == "--full") {
            options.full = true;
        } else if (arg == "--cycles" && i + 1 < argc) {
            options.cycles = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seed" && i + 1 < argc) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--jobs" && i + 1 < argc) {
            options.jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
            if (options.jobs == 0) {
                options.jobs = HardwareJobs();
            }
        } else if (arg == "--channel-jobs" && i + 1 < argc) {
            // 0 stays 0: "one worker per channel", resolved per system.
            options.channel_jobs = static_cast<unsigned>(
                std::strtoul(argv[++i], nullptr, 10));
        } else if (arg == "--engine") {
            options.engine = true;
        } else if (arg == "--json" && i + 1 < argc) {
            options.json_path = argv[++i];
        } else if (arg == "--trace" && i + 1 < argc) {
            options.trace_path = argv[++i];
        } else if (arg == "--help" || arg == "-h") {
            std::fprintf(stderr,
                         "usage: %s [--quick|--full] [--cycles N] "
                         "[--seed N] [--jobs N] [--channel-jobs N] "
                         "[--engine] [--json PATH] [--trace PATH]\n",
                         argv[0]);
            std::exit(0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            std::exit(2);
        }
    }
    return options;
}

unsigned
RunnerTeam(const ExperimentRunner& runner)
{
    const SystemConfig config =
        runner.config().MakeSystemConfig(SchedulerConfig{});
    return ResolveChannelJobs(config.channel_jobs, config.geometry.channels);
}

ExperimentRunner
MakeRunner(const Options& options, std::uint32_t cores)
{
    ExperimentConfig config;
    config.cores = cores;
    config.run_cycles = options.cycles;
    config.seed = options.seed;
    config.trace_path = options.trace_path;
    config.channel_jobs = options.channel_jobs;
    return ExperimentRunner(config);
}

void
Banner(const std::string& id, const std::string& caption)
{
    std::cout << "==================================================="
                 "=========================\n"
              << id << " — " << caption << "\n"
              << "PAR-BS reproduction (Mutlu & Moscibroda, ISCA 2008)\n"
              << "==================================================="
                 "=========================\n\n";
}

Session::Session(int argc, char** argv, const std::string& id,
                 const std::string& caption)
    : options_(ParseOptions(argc, argv)),
      binary_(BinaryName(argc > 0 ? argv[0] : nullptr)),
      start_(std::chrono::steady_clock::now())
{
    Banner(id, caption);
}

Session::~Session()
{
    Finish();
}

unsigned
Session::BatchJobs(unsigned team)
{
    const unsigned jobs =
        team > 1 ? std::max(1u, options_.jobs / team) : options_.jobs;
    jobs_used_ = std::max(jobs_used_, jobs);
    return jobs;
}

json::Value&
Session::SectionNode(const std::string& section)
{
    for (auto& item : sections_.items()) {
        if (item.Find("name")->AsString() == section) {
            return item;
        }
    }
    json::Value node = json::Value::Object();
    node.Set("name", section);
    node.Set("runs", json::Value::Array());
    node.Set("aggregates", json::Value::Array());
    node.Set("values", json::Value::Array());
    return sections_.Append(std::move(node));
}

void
Session::RecordRun(const std::string& section, const SharedRun& run)
{
    json::Value node = json::Value::Object();
    node.Set("workload", run.workload);
    node.Set("scheduler", run.scheduler);
    node.Set("unfairness", run.metrics.unfairness);
    node.Set("weighted_speedup", run.metrics.weighted_speedup);
    node.Set("hmean_speedup", run.metrics.hmean_speedup);
    node.Set("ast_per_req", run.metrics.avg_ast_per_req);
    node.Set("worst_case_latency",
             static_cast<std::uint64_t>(run.metrics.worst_case_latency));
    json::Value slowdowns = json::Value::Array();
    for (double slowdown : run.metrics.memory_slowdown) {
        slowdowns.Append(slowdown);
    }
    node.Set("memory_slowdown", std::move(slowdowns));
    SectionNode(section).Find("runs")->Append(std::move(node));
}

void
Session::RecordAggregate(const std::string& section,
                         const std::string& scheduler,
                         const AggregateMetrics& aggregate)
{
    json::Value node = json::Value::Object();
    node.Set("scheduler", scheduler);
    node.Set("unfairness_gmean", aggregate.unfairness_gmean);
    node.Set("weighted_speedup_gmean", aggregate.weighted_speedup_gmean);
    node.Set("hmean_speedup_gmean", aggregate.hmean_speedup_gmean);
    node.Set("ast_per_req_mean", aggregate.ast_per_req_mean);
    node.Set("worst_case_latency_mean", aggregate.worst_case_latency_mean);
    SectionNode(section).Find("aggregates")->Append(std::move(node));
}

void
Session::RecordValue(const std::string& section, const std::string& name,
                     double value)
{
    json::Value node = json::Value::Object();
    node.Set("name", name);
    node.Set("value", value);
    SectionNode(section).Find("values")->Append(std::move(node));
}

void
Session::RecordEngine(const std::string& label, json::Value run_engine,
                      json::Value env_engine)
{
    json::Value run_node = json::Value::Object();
    run_node.Set("label", label);
    run_node.Set("engine", std::move(run_engine));
    engine_run_.Append(std::move(run_node));

    json::Value env_node = json::Value::Object();
    env_node.Set("label", label);
    env_node.Set("engine", std::move(env_engine));
    engine_env_.Append(std::move(env_node));
}

void
Session::Finish()
{
    if (finished_) {
        return;
    }
    finished_ = true;
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    std::fprintf(stderr, "[bench] %s: wall-clock %.2f s (jobs=%u)\n",
                 binary_.c_str(), wall_seconds, jobs_used_);
    if (options_.json_path.empty()) {
        return;
    }

    // "run" holds everything deterministic (compared byte-for-byte by the
    // determinism test and exactly by the golden check); "env" holds the
    // volatile facts about this particular execution.
    json::Value run = json::Value::Object();
    run.Set("binary", binary_);
    run.Set("mode", options_.Mode());
    run.Set("cycles", static_cast<std::uint64_t>(options_.cycles));
    run.Set("seed", options_.seed);
    run.Set("sections", std::move(sections_));
    // Deterministic engine counters only — byte-identical across --jobs /
    // --channel-jobs, so they may live under the golden-checked subtree.
    if (!engine_run_.items().empty()) {
        run.Set("engine", std::move(engine_run_));
    }

    json::Value env = json::Value::Object();
    env.Set("wall_seconds", wall_seconds);
    env.Set("jobs", static_cast<std::uint64_t>(jobs_used_));
    // Parallelism knobs never reach the "run" subtree: results are
    // bit-identical for every value, so they are environment, not input.
    env.Set("channel_jobs",
            static_cast<std::uint64_t>(options_.channel_jobs));
    const char* commit = std::getenv("PARBS_COMMIT");
    env.Set("commit", commit != nullptr ? commit : "unknown");
    if (!engine_env_.items().empty()) {
        env.Set("engine", std::move(engine_env_));
    }

    json::Value root = json::Value::Object();
    root.Set("env", std::move(env));
    root.Set("run", std::move(run));

    std::ofstream out(options_.json_path);
    if (!out) {
        std::fprintf(stderr, "[bench] cannot write %s\n",
                     options_.json_path.c_str());
        return;
    }
    out << root.Dump(2) << "\n";
}

std::vector<SharedRun>
RunTasks(Session& session, ExperimentRunner& runner,
         const std::vector<RunTask>& tasks)
{
    std::vector<SharedRun> results(tasks.size());
    const unsigned jobs = session.BatchJobs(RunnerTeam(runner));
    ParallelFor(jobs, tasks.size(), [&](std::size_t index) {
        const RunTask& task = tasks[index];
        results[index] = runner.RunShared(
            task.workload, task.scheduler,
            task.priorities.empty() ? nullptr : &task.priorities,
            task.weights.empty() ? nullptr : &task.weights);
    });
    return results;
}

std::vector<std::vector<SharedRun>>
RunMatrix(Session& session, ExperimentRunner& runner,
          const std::vector<SchedulerConfig>& schedulers,
          const std::vector<WorkloadSpec>& workloads)
{
    std::vector<RunTask> tasks;
    tasks.reserve(schedulers.size() * workloads.size());
    for (const auto& scheduler : schedulers) {
        for (const auto& workload : workloads) {
            tasks.push_back(RunTask{workload, scheduler, {}, {}});
        }
    }
    std::vector<SharedRun> flat = RunTasks(session, runner, tasks);
    std::vector<std::vector<SharedRun>> runs(schedulers.size());
    for (std::size_t s = 0; s < schedulers.size(); ++s) {
        runs[s].assign(
            std::make_move_iterator(flat.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        s * workloads.size())),
            std::make_move_iterator(flat.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        (s + 1) * workloads.size())));
    }
    return runs;
}

std::vector<SharedRun>
RunCaseStudy(Session& session, ExperimentRunner& runner,
             const WorkloadSpec& workload)
{
    std::cout << "Workload " << workload.name << ":";
    for (const auto& benchmark : workload.benchmarks) {
        std::cout << " " << benchmark;
    }
    std::cout << "\n\n";

    std::vector<std::string> header{"scheduler"};
    for (const auto& benchmark : workload.benchmarks) {
        header.push_back("slow:" + benchmark);
    }
    header.insert(header.end(),
                  {"unfairness", "weighted-sp", "hmean-sp", "AST/req"});
    Table table(std::move(header));

    std::vector<std::vector<SharedRun>> matrix =
        RunMatrix(session, runner, ComparisonSchedulers(), {workload});
    std::vector<SharedRun> runs;
    runs.reserve(matrix.size());
    for (auto& per_scheduler : matrix) {
        runs.push_back(std::move(per_scheduler.front()));
    }

    for (const SharedRun& run : runs) {
        std::vector<std::string> row{run.scheduler};
        for (double slowdown : run.metrics.memory_slowdown) {
            row.push_back(Table::Num(slowdown));
        }
        row.push_back(Table::Num(run.metrics.unfairness));
        row.push_back(Table::Num(run.metrics.weighted_speedup));
        row.push_back(Table::Num(run.metrics.hmean_speedup));
        row.push_back(Table::Num(run.metrics.avg_ast_per_req, 0));
        table.AddRow(std::move(row));
        session.RecordRun(workload.name, run);
    }
    std::cout << table.Render() << "\n";
    return runs;
}

void
RunAggregate(Session& session, ExperimentRunner& runner,
             const std::vector<WorkloadSpec>& workloads,
             const std::string& label)
{
    std::cout << label << " (" << workloads.size() << " workloads, "
              << runner.config().cores << " cores)\n\n";
    Table table({"scheduler", "unfairness(gmean)", "weighted-sp(gmean)",
                 "hmean-sp(gmean)", "AST/req", "worst-case lat (cpu cyc)"});
    const std::vector<std::vector<SharedRun>> matrix =
        RunMatrix(session, runner, ComparisonSchedulers(), workloads);
    for (const std::vector<SharedRun>& runs : matrix) {
        const AggregateMetrics agg = ExperimentRunner::Aggregate(runs);
        table.AddRow({runs.front().scheduler,
                      Table::Num(agg.unfairness_gmean, 3),
                      Table::Num(agg.weighted_speedup_gmean, 3),
                      Table::Num(agg.hmean_speedup_gmean, 3),
                      Table::Num(agg.ast_per_req_mean, 0),
                      Table::Num(agg.worst_case_latency_mean, 0)});
        for (const SharedRun& run : runs) {
            session.RecordRun(label, run);
        }
        session.RecordAggregate(label, runs.front().scheduler, agg);
    }
    std::cout << table.Render() << "\n";
}

} // namespace parbs::bench

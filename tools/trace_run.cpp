/**
 * @file
 * Single traced simulation run: builds one System with observability
 * enabled, runs a canonical workload, and writes the Chrome trace-event
 * document to an exact output path — the "open a run in chrome://tracing"
 * entry point (EXPERIMENTS.md "Tracing a run").
 *
 *   trace_run --out run.json [--cores N] [--cycles N]
 *             [--scheduler NAME] [--interval N] [--seed N]
 *             [--engine] [--channel-jobs N]
 *
 * --engine turns on the engine flight recorder (DESIGN.md §5h): the
 * written trace gains the synthetic "engine" process with coordinator /
 * worker / window lanes.  Serial and sharded runs both record wall-timed
 * window spans; worker lanes need --channel-jobs (0 = all hardware
 * threads).
 *
 * Numeric values are checked: a malformed or out-of-range number exits 2
 * with a message naming the flag.
 *
 * NAME is any registry display name (FR-FCFS, FCFS, NFQ, STFM, PAR-BS,
 * BLISS, ...) matched case-insensitively with punctuation ignored, so
 * the historical lowercase spellings (parbs, frfcfs, ...) keep working.
 *
 * Unlike the experiment binaries (which derive one file per
 * workload/scheduler from a stem), this writes exactly the path given by
 * --out, or by PARBS_TRACE when --out is omitted.  The run is fully
 * deterministic in (cores, cycles, scheduler, interval, seed).
 */

#include <cctype>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench_common.hh"
#include "sched/factory.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

namespace {

using parbs::bench::ParseUnsignedFlag;

int
Usage(const char* argv0, int status)
{
    std::fprintf(stderr,
                 "usage: %s --out PATH [--cores N] [--cycles N] "
                 "[--scheduler NAME] [--interval N] [--seed N] "
                 "[--engine] [--channel-jobs N]\n"
                 "NAME: any registered scheduler (FR-FCFS, FCFS, NFQ, STFM, "
                 "PAR-BS, BLISS, ...); case and punctuation are ignored, so "
                 "parbs, frfcfs, bliss also work.\n"
                 "PARBS_TRACE is used when --out is omitted.\n",
                 argv0);
    return status;
}

/**
 * Resolves @p name against the factory registry, comparing display names
 * case-insensitively with punctuation stripped so both "PAR-BS" and the
 * historical lowercase "parbs" spelling work — a newly registered
 * scheduler (e.g. BLISS) is accepted with no tool change.
 */
bool
ParseScheduler(const std::string& name, parbs::SchedulerKind& kind)
{
    auto canon = [](const std::string& s) {
        std::string out;
        for (char c : s) {
            if (std::isalnum(static_cast<unsigned char>(c))) {
                out += static_cast<char>(
                    std::tolower(static_cast<unsigned char>(c)));
            }
        }
        return out;
    };
    for (const parbs::SchedulerKind candidate :
         parbs::AllSchedulerKinds()) {
        if (canon(parbs::SchedulerKindName(candidate)) == canon(name)) {
            kind = candidate;
            return true;
        }
    }
    return false;
}

/** The paper's canonical mixed workload for the given core count. */
parbs::WorkloadSpec
WorkloadFor(std::uint32_t cores)
{
    if (cores == 4) {
        return parbs::CaseStudy1();
    }
    if (cores == 8) {
        return parbs::EightCoreMixed();
    }
    if (cores == 16) {
        return parbs::SixteenCoreSamples().front();
    }
    // Uncommon core counts: replicate the Case Study III benchmark.
    return parbs::Copies("lbm", cores);
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path;
    std::uint32_t cores = 4;
    parbs::CpuCycle cycles = 500'000;
    parbs::SchedulerKind kind = parbs::SchedulerKind::kParBs;
    parbs::DramCycle interval = 1024;
    std::uint64_t seed = 1;
    bool engine = false;
    unsigned channel_jobs = 1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (arg == "--cores" && i + 1 < argc) {
            cores = static_cast<std::uint32_t>(
                ParseUnsignedFlag(arg, argv[++i], UINT32_MAX));
        } else if (arg == "--cycles" && i + 1 < argc) {
            cycles = ParseUnsignedFlag(arg, argv[++i]);
        } else if (arg == "--scheduler" && i + 1 < argc) {
            if (!ParseScheduler(argv[++i], kind)) {
                std::fprintf(stderr, "trace_run: unknown scheduler %s\n",
                             argv[i]);
                return 2;
            }
        } else if (arg == "--interval" && i + 1 < argc) {
            interval = ParseUnsignedFlag(arg, argv[++i]);
        } else if (arg == "--seed" && i + 1 < argc) {
            seed = ParseUnsignedFlag(arg, argv[++i]);
        } else if (arg == "--engine") {
            engine = true;
        } else if (arg == "--channel-jobs" && i + 1 < argc) {
            channel_jobs = static_cast<unsigned>(
                ParseUnsignedFlag(arg, argv[++i], UINT_MAX));
        } else if (arg == "--help" || arg == "-h") {
            return Usage(argv[0], 0);
        } else {
            std::fprintf(stderr, "trace_run: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
    }
    if (out_path.empty()) {
        const char* env = std::getenv("PARBS_TRACE");
        if (env != nullptr && env[0] != '\0') {
            out_path = env;
        } else {
            return Usage(argv[0], 2);
        }
    }

    parbs::ExperimentConfig experiment;
    experiment.cores = cores;
    experiment.run_cycles = cycles;
    experiment.seed = seed;
    experiment.channel_jobs = channel_jobs;

    parbs::SchedulerConfig scheduler;
    scheduler.kind = kind;

    parbs::SystemConfig system_config =
        experiment.MakeSystemConfig(scheduler);
    system_config.observability.trace = true;
    system_config.observability.sample_interval = interval;
    system_config.observability.engine_profile = engine;

    const parbs::WorkloadSpec workload = WorkloadFor(cores);
    parbs::ExperimentRunner runner(experiment);
    parbs::System system(system_config,
                         runner.MakeTraces(workload, system_config));
    system.Run(cycles);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr, "trace_run: cannot write %s\n",
                     out_path.c_str());
        return 2;
    }
    system.WriteTrace(out, workload.name);

    const parbs::obs::Observability& obs = *system.observability();
    std::fprintf(stderr,
                 "trace_run: %s: workload %s, scheduler %s, %llu cpu "
                 "cycles\n",
                 out_path.c_str(), workload.name.c_str(),
                 parbs::SchedulerConfigName(scheduler).c_str(),
                 static_cast<unsigned long long>(cycles));
    std::fprintf(stderr,
                 "trace_run: %zu events held (%llu dropped), %zu sampler "
                 "rows, %llu reads in the latency anatomy\n",
                 obs.tracer().size(),
                 static_cast<unsigned long long>(obs.tracer().dropped()),
                 obs.sampler().samples().size(),
                 static_cast<unsigned long long>(
                     obs.latency().recorded_reads()));
    return 0;
}

/**
 * @file
 * Fault-injection fuzzer: replays seeded fault scenarios against the
 * simulator and verifies every one is defended the way its family demands
 * (user faults -> ConfigError, model corruptions -> ProtocolError /
 * WatchdogError, stress -> clean completion).  Exits nonzero on the first
 * class of mismatch; a failing scenario reproduces with the same
 * --seed / index pair.
 *
 * Usage: fault_fuzz [--scenarios N] [--seed S] [--scheduler NAME|all]
 *                   [--channel-jobs N] [--verbose]
 *
 * Numbers parse through the bench harness's checked parser (decimal, or
 * hex after 0x): a malformed value exits 2 naming the flag.
 *
 * --scheduler / --channel-jobs replay the same scenario stream under a
 * different scheduler or worker count; the defenses must not change
 * (tests/sim/fault_injection_test.cc asserts exact equality).  Scheduler
 * names come from the factory registry (AllSchedulerKinds), so a newly
 * registered policy is accepted — and swept by `--scheduler all` — with
 * no fuzzer change.
 */
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench_common.hh"
#include "sched/factory.hh"
#include "sim/fault_injector.hh"

using namespace parbs;

namespace {

/** Runs @p scenarios scenarios under @p options; @return mismatches. */
std::uint64_t
RunSweep(std::uint64_t scenarios, std::uint64_t seed,
         const FaultOptions& options, bool verbose)
{
    FaultInjector injector(seed);
    std::uint64_t passed = 0;
    std::uint64_t failed = 0;
    std::uint64_t by_kind[kNumFaultKinds] = {};
    for (std::uint64_t index = 0; index < scenarios; ++index) {
        const FaultOutcome outcome = injector.RunScenario(index, options);
        by_kind[static_cast<std::size_t>(outcome.kind)] += 1;
        if (outcome.Passed()) {
            passed += 1;
            if (verbose) {
                std::printf("[%6llu] %-22s %-18s %s\n",
                            static_cast<unsigned long long>(index),
                            FaultKindName(outcome.kind),
                            DefenseName(outcome.observed),
                            outcome.detail.c_str());
            }
        } else {
            failed += 1;
            std::fprintf(stderr,
                         "FAIL [%llu] %s: expected %s, observed %s\n  %s\n",
                         static_cast<unsigned long long>(index),
                         FaultKindName(outcome.kind),
                         DefenseName(outcome.expected),
                         DefenseName(outcome.observed),
                         outcome.detail.c_str());
        }
    }

    std::printf("fault_fuzz: scheduler %s: %llu scenarios, %llu defended "
                "as expected, %llu mismatched (seed 0x%llx)\n",
                SchedulerKindName(options.scheduler),
                static_cast<unsigned long long>(scenarios),
                static_cast<unsigned long long>(passed),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(seed));
    for (std::size_t kind = 0; kind < kNumFaultKinds; ++kind) {
        std::printf("  %-22s %llu\n",
                    FaultKindName(static_cast<FaultKind>(kind)),
                    static_cast<unsigned long long>(by_kind[kind]));
    }
    return failed;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t scenarios = 1000;
    std::uint64_t seed = 0xFA11;
    bool verbose = false;
    bool all_schedulers = false;
    FaultOptions options;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scenarios") == 0 && i + 1 < argc) {
            scenarios = bench::ParseUnsignedFlag(argv[i], argv[i + 1]);
            i += 1;
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            seed = bench::ParseUnsignedFlag(argv[i], argv[i + 1]);
            i += 1;
        } else if (std::strcmp(argv[i], "--scheduler") == 0 && i + 1 < argc) {
            i += 1;
            if (std::strcmp(argv[i], "all") == 0) {
                all_schedulers = true;
            } else if (!ParseSchedulerKind(argv[i], options.scheduler)) {
                std::fprintf(stderr, "unknown scheduler: %s (registry:",
                             argv[i]);
                for (const SchedulerKind kind : AllSchedulerKinds()) {
                    std::fprintf(stderr, " %s", SchedulerKindName(kind));
                }
                std::fprintf(stderr, ", or all)\n");
                return 2;
            }
        } else if (std::strcmp(argv[i], "--channel-jobs") == 0 &&
                   i + 1 < argc) {
            options.channel_jobs = static_cast<unsigned>(
                bench::ParseUnsignedFlag(argv[i], argv[i + 1], UINT_MAX));
            i += 1;
        } else if (std::strcmp(argv[i], "--verbose") == 0) {
            verbose = true;
        } else {
            std::fprintf(stderr,
                         "usage: %s [--scenarios N] [--seed S] "
                         "[--scheduler NAME|all] [--channel-jobs N] "
                         "[--verbose]\n",
                         argv[0]);
            return 2;
        }
    }

    std::uint64_t failed = 0;
    if (all_schedulers) {
        for (const SchedulerKind kind : AllSchedulerKinds()) {
            options.scheduler = kind;
            failed += RunSweep(scenarios, seed, options, verbose);
        }
    } else {
        failed = RunSweep(scenarios, seed, options, verbose);
    }
    return failed == 0 ? 0 : 1;
}

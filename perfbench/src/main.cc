/**
 * @file
 * The simulator benchmark.  One invocation runs one workload:
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--expected <dir>] [--record] [--quick]
 *
 * It measures set-up several times, repeats the workload untraced until
 * `--seconds` have passed, and with `--trace 1` repeats it again through
 * the timing decorators.  Every repetition's simulated statistics must
 * equal the reference: the recorded file in `--expected` at the default
 * seed, otherwise the first repetition.  The last stdout line is the
 * result object; the lines before it name every figure with its unit and
 * sample count.  `--record` writes the reference file instead.
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "harness.hh"

namespace {

using namespace perfbench;
using parbs::json::Value;

/** The seed the expected-statistics files were recorded at. */
constexpr std::uint64_t kDefaultSeed = 1;
/** Set-up measurements before each untraced repetition. */
constexpr int kSetupTrialsPerRep = 5;
/** Minimum repetitions per pass, whatever --seconds says. */
constexpr std::size_t kMinReps = 3;

struct Args {
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string expected_dir;
    bool record = false;
    bool quick = false;
};

[[noreturn]] void
Usage(const std::string& error)
{
    std::cerr << "perfbench: " << error << "\n"
              << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--expected <dir>] "
                 "[--record] [--quick]\n";
    std::exit(2);
}

Args
Parse(int argc, char** argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                Usage("missing value for " + arg);
            }
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                args.workload = value();
            } else if (arg == "--seed") {
                args.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                args.seconds = std::stod(value());
            } else if (arg == "--trace") {
                const std::string trace = value();
                if (trace != "0" && trace != "1") {
                    Usage("--trace takes 0 or 1");
                }
                args.trace = trace == "1";
            } else if (arg == "--expected") {
                args.expected_dir = value();
            } else if (arg == "--record") {
                args.record = true;
            } else if (arg == "--quick") {
                args.quick = true;
            } else {
                Usage("unknown argument " + arg);
            }
        } catch (const std::logic_error&) {
            Usage("bad value for " + arg);
        }
    }
    if (FindWorkload(args.workload) == nullptr) {
        Usage("unknown workload '" + args.workload + "'");
    }
    if (args.seconds <= 0.0) {
        Usage("--seconds must be positive");
    }
    return args;
}

/** Compares every repetition with the reference and tallies failures. */
struct Checker {
    /** The recorded file, or else the first repetition checked. */
    std::optional<Value> reference;
    std::string reference_name = "first repetition";
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;

    void Check(const Rep& rep, const std::string& pass)
    {
        if (!reference) {
            reference = rep.stats;
        }
        const std::uint64_t mismatched =
            CountMismatches(rep.stats, *reference);
        attempted += rep.runs;
        failed += rep.thrown + mismatched;
        errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
        if (mismatched > 0) {
            errors.push_back(pass + " repetition: " +
                             std::to_string(mismatched) +
                             " run(s) differ from the " + reference_name);
        }
    }
};

/**
 * Repeats the workload until @p budget_s has passed (kMinReps at least),
 * checking each repetition as it ends.  Only the first repetition keeps
 * its statistics, so memory does not grow with the repetition count.
 * With @p setup, set-up is measured before every repetition, so its
 * trials sample the whole pass rather than its first moments.
 */
std::vector<Rep>
RunPass(const Workload& workload, const Args& args, bool traced,
        double budget_s, unsigned divisor, Checker& checker,
        std::vector<double>* setup = nullptr)
{
    std::vector<Rep> reps;
    const Clock::time_point start = Clock::now();
    while (reps.size() < kMinReps ||
           static_cast<double>(ElapsedNs(start, Clock::now())) * 1e-9 <
               budget_s) {
        for (int i = 0; setup != nullptr && i < kSetupTrialsPerRep; ++i) {
            setup->push_back(SetupSeconds(workload, args.seed, divisor));
        }
        Rep rep = RunRep(workload, args.seed, traced, divisor);
        checker.Check(rep, traced ? "traced" : "untraced");
        if (!reps.empty()) {
            rep.stats = Value();
        }
        reps.push_back(std::move(rep));
    }
    return reps;
}

/** The expected-statistics file of @p workload: the sharded workload
 *  shares scale64's, since its output must be identical. */
std::string
ExpectedPath(const Args& args, const Workload& workload)
{
    const std::string name =
        workload.channel_jobs == 1 ? workload.name : "scale64";
    return args.expected_dir + "/" + name + ".json";
}

double
Quartile(std::vector<double> values, int which)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    const std::size_t lo = which == 1 ? 0 : n / 2 + n % 2;
    const std::size_t hi = which == 1 ? n / 2 : n;
    return Median(std::vector<double>(values.begin() + lo,
                                      values.begin() + hi));
}

void
PrintSample(const std::string& name, const std::vector<double>& values,
            const std::string& unit)
{
    std::cout << "  " << name << " = " << Median(values) << " " << unit
              << "  (median of n=" << values.size();
    if (values.size() >= 4) {
        std::cout << ", p25 " << Quartile(values, 1) << ", p75 "
                  << Quartile(values, 3);
    }
    std::cout << ")\n";
}

/** Writes @p stats with one simulation-run record per line, so a change
 *  to the simulated output shows as a readable diff of the runs it moved. */
void
WriteStats(std::ostream& out, const Value& stats)
{
    out << "{";
    const char* separator = "";
    for (const auto& [key, list] : stats.members()) {
        out << separator << "\n" << parbs::json::Quote(key) << ": [";
        for (std::size_t i = 0; i < list.items().size(); ++i) {
            out << (i == 0 ? "\n" : ",\n") << list.items()[i].Dump();
        }
        out << "]";
        separator = ",";
    }
    out << "\n}\n";
}

/**
 * Mean of the middle half of @p values: robust to the first trial's page
 * faults like a median, but smooth when host speed alternates between two
 * levels, where a median jumps from one to the other.
 */
double
InterquartileMean(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t quarter = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = quarter; i < values.size() - quarter; ++i) {
        sum += values[i];
    }
    return sum / static_cast<double>(values.size() - 2 * quarter);
}

/**
 * Peak resident memory of this process image, from VmHWM.  Unlike
 * getrusage's ru_maxrss, it does not carry over the memory of the process
 * that forked this one, so each workload's invocation reports its own peak.
 */
double
PeakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;
        }
    }
    return 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = Parse(argc, argv);
    const Workload& workload = *FindWorkload(args.workload);
    const unsigned divisor = args.quick ? 10 : 1;

    Checker checker;
    if (!args.expected_dir.empty() && args.seed == kDefaultSeed &&
        !args.quick && !args.record) {
        const std::string path = ExpectedPath(args, workload);
        std::ifstream in(path);
        std::stringstream text;
        text << in.rdbuf();
        try {
            checker.reference = Value::Parse(text.str());
            checker.reference_name = path;
        } catch (const parbs::json::ParseError& error) {
            std::cerr << "perfbench: cannot read " << path << ": "
                      << error.what() << "\n";
            return 1;
        }
    }

    const double untraced_budget = args.trace ? args.seconds * 0.35
                                              : args.seconds;
    std::vector<double> setup;
    const std::vector<Rep> untraced = RunPass(
        workload, args, false, untraced_budget, divisor, checker, &setup);
    std::vector<Rep> traced;
    if (args.trace || args.record) {
        traced = RunPass(workload, args, true,
                         args.seconds - untraced_budget, divisor, checker);
    }
    // The sharded workload must reproduce the serial engine exactly.
    if (workload.channel_jobs != 1) {
        checker.Check(RunRep(workload, args.seed, false, divisor, 1),
                      "serial-engine reference");
    }

    if (args.record) {
        const std::string path = ExpectedPath(args, workload);
        std::ofstream out(path);
        WriteStats(out, traced.front().stats);
        if (!out) {
            std::cerr << "perfbench: cannot write " << path << "\n";
            return 1;
        }
        std::cerr << "perfbench: recorded " << path << "\n";
    }

    // sim_mips is the rate over the whole timed pass; host speed here
    // comes in phases of seconds, which a pass-wide rate averages and a
    // per-repetition median would snap between.
    std::vector<double> wall;
    double instructions = 0.0;
    double pass_s = 0.0;
    for (const Rep& rep : untraced) {
        wall.push_back(rep.wall_s);
        pass_s += rep.wall_s;
        instructions += static_cast<double>(rep.instructions);
    }
    const double sim_mips = instructions / pass_s * 1e-6;
    const Rep& first = untraced.front();
    const double ipc = first.shared_cycles == 0
                           ? 0.0
                           : static_cast<double>(first.shared_instructions) /
                                 static_cast<double>(first.shared_cycles);
    const double peak_rss_mb = PeakRssMb();

    std::cout << "perfbench " << workload.name << " seed " << args.seed
              << (args.quick ? " (quick)" : "") << "\n"
              << "  simulated: " << first.runs << " run(s) of "
              << workload.cycles / divisor
              << " CPU cycles per repetition (4 GHz model cycles; the "
                 "model is unvalidated, no error figure)\n"
              << "  digest " << Digest(first.stats) << " (checked against "
              << checker.reference_name << ")\n";
    PrintSample("repetition wall", wall, "s");
    std::cout << "  sim_mips = " << sim_mips << " MIPS  (over the pass: "
              << instructions << " instructions in " << pass_s << " s)\n";
    PrintSample("setup_s", setup, "s");
    std::cout << "    (reported: interquartile mean "
              << InterquartileMean(setup) << " s)\n";
    std::cout << "  peak_rss_mb = " << peak_rss_mb << " MB\n"
              << "  sim_ipc = " << ipc << " instructions/cycle (exact)\n";
    if (workload.experiment) {
        double ws_ratio = 0.0;
        double unfairness = 0.0;
        PaperResults(first.stats, ws_ratio, unfairness);
        std::cout << "  parbs_ws_ratio = " << ws_ratio << " (exact)\n"
                  << "  parbs_unfairness = " << unfairness << " (exact)\n";
    }
    std::cout << "  failed_frac = " << checker.failed << "/"
              << checker.attempted << "\n";
    for (const std::string& error : checker.errors) {
        std::cout << "  FAILED: " << error << "\n";
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        metrics = LayerMetrics(workload, traced, untraced);
        std::cout << "  per-layer (traced pass, n=" << traced.size()
                  << " repetitions; times are medians):\n";
        for (const Metric& metric : metrics) {
            std::cout << "    " << metric.name << " = " << metric.value << " "
                      << metric.unit << "\n";
        }
    } else {
        metrics = {{"sim_mips", sim_mips, "MIPS"},
                   {"setup_s", InterquartileMean(setup), "s"},
                   {"peak_rss_mb", peak_rss_mb, "MB"},
                   {"sim_ipc", ipc, "1/cycle"}};
    }

    Value values = Value::Object();
    for (const Metric& metric : metrics) {
        Value entry = Value::Object();
        entry.Set("value", metric.value);
        entry.Set("unit", metric.unit);
        values.Set(metric.name, std::move(entry));
    }
    Value result = Value::Object();
    result.Set("correct", checker.failed == 0);
    result.Set("attempted", checker.attempted);
    result.Set("failed", checker.failed);
    result.Set("metrics", std::move(values));
    std::cout << result.Dump() << std::endl;
    return 0;
}

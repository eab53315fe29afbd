/**
 * @file
 * Table 3: benchmark characteristics.  Runs every synthetic benchmark
 * profile alone on the baseline 4-core system and prints measured MCPI,
 * MPKI, row-buffer hit rate, BLP, and AST/req next to the paper's values.
 */

#include <iostream>

#include "bench_common.hh"

int
main(int argc, char** argv)
{
    using namespace parbs;
    bench::Session session(argc, argv, "Table 3",
                           "benchmark characteristics, alone on the 4-core "
                           "baseline (measured vs paper)");

    ExperimentRunner runner = bench::MakeRunner(session.options(), 4);

    // Warm the alone-baseline cache in parallel; the print loop below then
    // reads fully-computed entries in profile order.
    const auto profiles = SpecProfiles();
    const unsigned jobs = session.BatchJobs(bench::RunnerTeam(runner));
    ParallelFor(jobs, profiles.size(), [&](std::size_t index) {
        runner.AloneBaseline(std::string(profiles[index].name));
    });

    Table table({"#", "benchmark", "type", "cat", "MCPI", "(paper)", "MPKI",
                 "(paper)", "RB hit", "(paper)", "BLP", "(paper)",
                 "AST/req", "(paper)"});
    int index = 1;
    for (const BenchmarkProfile& profile : profiles) {
        const ThreadMeasurement& m =
            runner.AloneBaseline(std::string(profile.name));
        table.AddRow({std::to_string(index++), std::string(profile.name),
                      std::string(profile.type),
                      std::to_string(profile.category),
                      Table::Num(m.mcpi), Table::Num(profile.paper_mcpi),
                      Table::Num(m.mpki, 1),
                      Table::Num(profile.paper_mpki, 1),
                      Table::Num(m.row_hit_rate),
                      Table::Num(profile.paper_rb_hit), Table::Num(m.blp),
                      Table::Num(profile.paper_blp),
                      Table::Num(m.ast_per_req, 0),
                      Table::Num(profile.paper_ast_per_req, 0)});
        const std::string name(profile.name);
        session.RecordValue("characteristics", name + "/mcpi", m.mcpi);
        session.RecordValue("characteristics", name + "/mpki", m.mpki);
        session.RecordValue("characteristics", name + "/rb_hit",
                            m.row_hit_rate);
        session.RecordValue("characteristics", name + "/blp", m.blp);
        session.RecordValue("characteristics", name + "/ast_per_req",
                            m.ast_per_req);
    }
    std::cout << table.Render() << "\n"
              << "Category bits: 4 = memory-intensive (MCPI), 2 = high "
                 "row-buffer locality, 1 = high BLP.\n"
              << "Generator knobs were calibrated against RB hit, BLP, and "
                 "AST/req (tools/calibrate.cpp);\n"
              << "absolute MCPI/AST of the intensive streaming benchmarks "
                 "sit below paper values by design\n"
              << "(see EXPERIMENTS.md, substitution notes).\n";
    return 0;
}

/**
 * @file
 * The parallel experiment runner: runs independent simulation jobs
 * concurrently while keeping results bit-identical to serial execution,
 * and decides how many host threads each run's sharded engine gets.
 *
 * Determinism contract (see DESIGN.md "Parallel runner"):
 *  - Every job is a self-contained simulation whose randomness derives
 *    only from the experiment seed and the job's own identity (workload
 *    name, slot, benchmark) — never from thread identity, scheduling
 *    order, or wall-clock time.
 *  - Results are written into a pre-sized vector at the job's index, so
 *    the output order is the index order regardless of completion order.
 *  - With jobs <= 1 everything runs inline on the caller thread; the
 *    parallel path differs only in which thread executes a job.
 */

#ifndef PARBS_SIM_RUNNER_HH
#define PARBS_SIM_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <functional>

namespace parbs {

/** @return the number of hardware threads (at least 1). */
unsigned HardwareJobs();

/**
 * Host threads a system with @p channels channels shards onto for
 * SystemConfig::channel_jobs = @p requested: 0 means one per channel but
 * never more than HardwareJobs() (an oversubscribed team spins against
 * itself), and any request is clamped to [1, channels] (more workers than
 * channels would have nothing to do).  The System constructor and the
 * bench harness's --jobs/--channel-jobs composition both use this rule.
 */
unsigned ResolveChannelJobs(unsigned requested, std::uint32_t channels);

/**
 * Runs fn(0) ... fn(n - 1), each exactly once, on @p jobs threads.
 *
 * jobs <= 1 runs them inline on the caller, in index order.  Otherwise
 * the caller and jobs - 1 threads started for this call take indices from
 * one shared cursor until it runs out; the threads are joined before
 * return.  Every task runs even if some throw; afterwards the exception of
 * the lowest failing index is rethrown.
 */
void ParallelFor(unsigned jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

} // namespace parbs

#endif // PARBS_SIM_RUNNER_HH

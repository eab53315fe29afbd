/**
 * @file
 * Interval time-series sampler: every N DRAM cycles, snapshot per-controller
 * and per-bank counters into an in-memory table.
 *
 * All sampled sources are monotonic counters already maintained by the hot
 * path (controller thread stats, channel bus occupancy, bank activation
 * counts), so sampling is pure reads — a run with the sampler attached is
 * cycle-for-cycle identical to one without.  Rates (row-hit rate, bus
 * utilization, per-thread BLP) are computed per interval from deltas, which
 * is what makes the series diagnosable: a phase change shows up in the
 * interval it happens, not diluted into the end-of-run aggregate.
 *
 * The first sample lands at cycle `interval`, so an interval longer than
 * the run yields an empty series and interval 0 disables sampling.
 */

#ifndef PARBS_OBS_SAMPLER_HH
#define PARBS_OBS_SAMPLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"

namespace parbs {
class Controller;
namespace json {
class Value;
}
} // namespace parbs

namespace parbs::obs {

/** One controller's state at one sample point. */
struct ControllerSample {
    std::uint32_t read_queue = 0;
    std::uint32_t write_queue = 0;
    /** Read row-hit rate over the interval (0 when no reads retired). */
    double row_hit_rate = 0.0;
    /** Data-bus busy fraction over the interval. */
    double bus_utilization = 0.0;
    /** DRAM commands issued during the interval. */
    std::uint64_t commands = 0;
    /** Scheduler's open-batch occupancy at the sample point (PAR-BS). */
    std::uint64_t batch_outstanding = 0;
    /** Average BLP per thread over the interval (busy cycles only). */
    std::vector<double> thread_blp;
    /** Queued (schedulable) read requests per bank at the sample point. */
    std::vector<std::uint32_t> bank_queued;
    /** ACTIVATEs per bank during the interval. */
    std::vector<std::uint64_t> bank_activations;

    // --- RAS activity over the interval (all zero when RAS is off) ------
    /** ECC-corrected demand reads. */
    std::uint64_t ecc_corrected = 0;
    /** Uncorrectable demand-read failures. */
    std::uint64_t ecc_uncorrectable = 0;
    /** Controller-issued ECC retries. */
    std::uint64_t ecc_retries = 0;
    /** Patrol-scrub reads issued. */
    std::uint64_t scrub_reads = 0;
    /** Rows retired into the remap table. */
    std::uint64_t rows_retired = 0;
    /** Remap-table occupancy at the sample point (point-in-time). */
    std::uint64_t remap_used = 0;
};

/** One row of the time series. */
struct Sample {
    DramCycle cycle = 0;
    std::vector<ControllerSample> controllers;
};

class IntervalSampler {
  public:
    /** @param interval sample period in DRAM cycles (0 disables). */
    explicit IntervalSampler(DramCycle interval);

    DramCycle interval() const { return interval_; }

    const std::vector<Sample>& samples() const { return samples_; }

    /** The cycle the next row is due at (first row lands at `interval`). */
    DramCycle next_sample() const { return next_sample_; }

    /**
     * Pre-sizes the per-channel baselines so SampleChannel never has to
     * allocate.  System::Run calls this at the start of every run, before
     * any worker starts; repeated calls keep the baselines.
     */
    void PrepareChannels(
        const std::vector<std::unique_ptr<Controller>>& controllers);

    /**
     * Samples one channel and advances that channel's baselines.  Reads
     * only @p controller's counters and writes only baselines_[channel],
     * so concurrent calls for *distinct* channels are safe once
     * PrepareChannels has run — the decomposition the sharded System's
     * window-aligned aggregation relies on.  Both engines sample through
     * here; row assembly (AppendRow) stays on the coordinating thread.
     */
    ControllerSample SampleChannel(const Controller& controller,
                                   std::size_t channel);

    /**
     * Appends one fully-assembled row (channel order) taken at @p cycle
     * and schedules the next sample one interval later.
     * @pre cycle == next_sample().
     */
    void AppendRow(DramCycle cycle, std::vector<ControllerSample> row);

    /** Table form: {"interval": N, "samples": [...]} for bench_report. */
    json::Value ToJson() const;

  private:
    /** Last-seen values of the monotonic sources, for interval deltas. */
    struct ControllerBaseline {
        std::uint64_t row_hits = 0;
        std::uint64_t row_total = 0;
        std::uint64_t bus_busy = 0;
        std::uint64_t commands = 0;
        std::vector<std::uint64_t> blp_sum;
        std::vector<std::uint64_t> blp_cycles;
        std::vector<std::uint64_t> activations;
        std::uint64_t ecc_corrected = 0;
        std::uint64_t ecc_uncorrectable = 0;
        std::uint64_t ecc_retries = 0;
        std::uint64_t scrub_reads = 0;
        std::uint64_t rows_retired = 0;
    };

    DramCycle interval_;
    DramCycle next_sample_;
    std::vector<Sample> samples_;
    std::vector<ControllerBaseline> baselines_;
};

} // namespace parbs::obs

#endif // PARBS_OBS_SAMPLER_HH

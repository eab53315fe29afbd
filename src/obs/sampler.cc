#include "obs/sampler.hh"

#include "common/json.hh"
#include "mem/controller.hh"

namespace parbs::obs {

IntervalSampler::IntervalSampler(DramCycle interval)
    : interval_(interval), next_sample_(interval)
{
}

void
IntervalSampler::PrepareChannels(
    const std::vector<std::unique_ptr<Controller>>& controllers)
{
    if (!baselines_.empty()) {
        return;
    }
    baselines_.resize(controllers.size());
    for (std::size_t c = 0; c < controllers.size(); ++c) {
        const std::uint32_t threads = controllers[c]->num_threads();
        const std::uint32_t banks =
            controllers[c]->read_queue().num_banks();
        baselines_[c].blp_sum.assign(threads, 0);
        baselines_[c].blp_cycles.assign(threads, 0);
        baselines_[c].activations.assign(banks, 0);
    }
}

ControllerSample
IntervalSampler::SampleChannel(const Controller& controller,
                               std::size_t channel)
{
    ControllerBaseline& base = baselines_[channel];
    ControllerSample out;
    out.read_queue = static_cast<std::uint32_t>(controller.pending_reads());
    out.write_queue =
        static_cast<std::uint32_t>(controller.pending_writes());

    // Row-hit rate over the interval, from the per-thread service-class
    // counters (each retired read is classified exactly once).
    std::uint64_t hits = 0;
    std::uint64_t total = 0;
    const std::uint32_t threads = controller.num_threads();
    for (ThreadId thread = 0; thread < threads; ++thread) {
        const ControllerThreadStats& stats =
            controller.thread_stats(thread);
        hits += stats.read_row_hits;
        total += stats.read_row_hits + stats.read_row_closed +
                 stats.read_row_conflicts;
    }
    const std::uint64_t d_hits = hits - base.row_hits;
    const std::uint64_t d_total = total - base.row_total;
    out.row_hit_rate = d_total == 0 ? 0.0
                                    : static_cast<double>(d_hits) /
                                          static_cast<double>(d_total);
    base.row_hits = hits;
    base.row_total = total;

    const std::uint64_t bus_busy = controller.channel().bus_busy_cycles();
    out.bus_utilization = static_cast<double>(bus_busy - base.bus_busy) /
                          static_cast<double>(interval_);
    base.bus_busy = bus_busy;

    const std::uint64_t commands = controller.total_commands_issued();
    out.commands = commands - base.commands;
    base.commands = commands;

    out.batch_outstanding = controller.scheduler().BatchOutstanding();

    out.thread_blp.reserve(threads);
    for (ThreadId thread = 0; thread < threads; ++thread) {
        const ControllerThreadStats& stats =
            controller.thread_stats(thread);
        const std::uint64_t d_sum = stats.blp_sum - base.blp_sum[thread];
        const std::uint64_t d_cycles =
            stats.blp_cycles - base.blp_cycles[thread];
        out.thread_blp.push_back(d_cycles == 0
                                     ? 0.0
                                     : static_cast<double>(d_sum) /
                                           static_cast<double>(d_cycles));
        base.blp_sum[thread] = stats.blp_sum;
        base.blp_cycles[thread] = stats.blp_cycles;
    }

    const RequestQueue& reads = controller.read_queue();
    const std::uint32_t banks = reads.num_banks();
    const std::uint32_t banks_per_rank =
        banks / controller.channel().num_ranks();
    out.bank_queued.reserve(banks);
    out.bank_activations.reserve(banks);
    for (std::uint32_t bank = 0; bank < banks; ++bank) {
        out.bank_queued.push_back(reads.QueuedInBank(bank));
        const std::uint64_t activations =
            controller.channel()
                .bank(bank / banks_per_rank, bank % banks_per_rank)
                .activations();
        out.bank_activations.push_back(activations -
                                       base.activations[bank]);
        base.activations[bank] = activations;
    }

    if (const RasEngine* ras = controller.ras()) {
        const RasStats& stats = ras->stats();
        out.ecc_corrected = stats.corrected - base.ecc_corrected;
        out.ecc_uncorrectable = stats.uncorrectable - base.ecc_uncorrectable;
        out.ecc_retries = stats.retries - base.ecc_retries;
        out.scrub_reads = stats.scrub_reads - base.scrub_reads;
        out.rows_retired = stats.rows_retired - base.rows_retired;
        out.remap_used = ras->remap_used();
        base.ecc_corrected = stats.corrected;
        base.ecc_uncorrectable = stats.uncorrectable;
        base.ecc_retries = stats.retries;
        base.scrub_reads = stats.scrub_reads;
        base.rows_retired = stats.rows_retired;
    }
    return out;
}

void
IntervalSampler::AppendRow(DramCycle cycle, std::vector<ControllerSample> row)
{
    Sample sample;
    sample.cycle = cycle;
    sample.controllers = std::move(row);
    samples_.push_back(std::move(sample));
    next_sample_ = cycle + interval_;
}

json::Value
IntervalSampler::ToJson() const
{
    json::Value out = json::Value::Object();
    out.Set("interval", interval_);
    json::Value rows = json::Value::Array();
    for (const Sample& sample : samples_) {
        json::Value row = json::Value::Object();
        row.Set("cycle", sample.cycle);
        json::Value controllers = json::Value::Array();
        for (const ControllerSample& cs : sample.controllers) {
            json::Value entry = json::Value::Object();
            entry.Set("read_queue", std::uint64_t{cs.read_queue});
            entry.Set("write_queue", std::uint64_t{cs.write_queue});
            entry.Set("row_hit_rate", cs.row_hit_rate);
            entry.Set("bus_utilization", cs.bus_utilization);
            entry.Set("commands", cs.commands);
            entry.Set("batch_outstanding", cs.batch_outstanding);
            json::Value blp = json::Value::Array();
            for (double value : cs.thread_blp) {
                blp.Append(value);
            }
            entry.Set("thread_blp", std::move(blp));
            json::Value queued = json::Value::Array();
            for (std::uint32_t value : cs.bank_queued) {
                queued.Append(std::uint64_t{value});
            }
            entry.Set("bank_queued", std::move(queued));
            json::Value acts = json::Value::Array();
            for (std::uint64_t value : cs.bank_activations) {
                acts.Append(value);
            }
            entry.Set("bank_activations", std::move(acts));
            entry.Set("ecc_corrected", cs.ecc_corrected);
            entry.Set("ecc_uncorrectable", cs.ecc_uncorrectable);
            entry.Set("ecc_retries", cs.ecc_retries);
            entry.Set("scrub_reads", cs.scrub_reads);
            entry.Set("rows_retired", cs.rows_retired);
            entry.Set("remap_used", cs.remap_used);
            controllers.Append(std::move(entry));
        }
        row.Set("controllers", std::move(controllers));
        rows.Append(std::move(row));
    }
    out.Set("samples", std::move(rows));
    return out;
}

} // namespace parbs::obs

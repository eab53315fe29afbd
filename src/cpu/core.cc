#include "cpu/core.hh"

#include <algorithm>

#include "common/assert.hh"

namespace parbs {

void
CoreConfig::Validate() const
{
    if (window_size == 0 || width == 0 || mshrs == 0) {
        PARBS_FATAL("core: window_size, width, and mshrs must be nonzero");
    }
}

Core::Core(const CoreConfig& config, ThreadId thread, TraceSource& trace,
           MemoryPort& port)
    : config_(config), thread_(thread), trace_(trace), port_(port)
{
    config_.Validate();
}

bool
Core::Tick()
{
    stats_.ticks_executed += 1;
    bool progress = Commit();
    if (progress) {
        stats_.cycles += 1;
    } else {
        // Nothing committed: the head is as Commit found it, so this is
        // exactly the charge of one skipped idle cycle.
        ChargeIdle(stats_, 1);
    }
    progress |= IssueMemory();
    progress |= Fetch();
    return progress;
}

void
Core::ChargeIdle(CoreStats& stats, std::uint64_t cycles) const
{
    stats.cycles += cycles;
    if (window_.empty()) {
        return;
    }
    const Slot& head = window_.front();
    if (head.kind == Slot::Kind::kLoad && !head.done) {
        stats.load_stall_cycles += cycles;
    } else if (head.kind == Slot::Kind::kStore && !head.issued) {
        stats.store_stall_cycles += cycles;
    }
}

bool
Core::Commit()
{
    std::uint32_t budget = config_.width;
    std::uint64_t committed = 0;
    while (budget > 0 && !window_.empty()) {
        Slot& head = window_.front();
        if (head.kind == Slot::Kind::kCompute) {
            const std::uint32_t n = std::min(budget, head.count);
            head.count -= n;
            budget -= n;
            committed += n;
            window_occupancy_ -= n;
            if (head.count == 0) {
                window_.pop_front();
            }
            continue;
        }
        if (head.kind == Slot::Kind::kLoad) {
            if (!head.done) {
                break; // In-order commit: stall on the oldest load.
            }
        } else if (!head.issued) {
            break; // Store could not enter the write buffer yet.
        }
        committed += 1;
        budget -= 1;
        window_occupancy_ -= 1;
        window_.pop_front();
    }
    stats_.instructions += committed;
    return committed > 0;
}

bool
Core::IssueMemory()
{
    // At most one memory operation issues per cycle (baseline: one of the
    // three pipeline slots may be a memory op).  A dependent access may only
    // issue once it is the oldest unissued access and nothing is in flight.
    const std::size_t scan_limit = std::min<std::size_t>(unissued_.size(), 4);
    for (std::size_t i = 0; i < scan_limit; ++i) {
        Slot* slot = unissued_[i];
        const bool dependency_ready =
            !slot->depends_on_prev || (i == 0 && in_flight_.empty());
        if (!dependency_ready) {
            continue;
        }
        if (slot->kind == Slot::Kind::kLoad) {
            if (in_flight_.size() >= config_.mshrs) {
                break; // MSHRs full: no further loads may issue.
            }
            const std::optional<RequestId> id =
                port_.TryIssueRead(thread_, slot->addr);
            if (!id.has_value()) {
                break; // Request buffer full; retry next cycle.
            }
            slot->issued = true;
            in_flight_.emplace_back(*id, slot);
            stats_.loads_issued += 1;
        } else {
            if (!port_.TryIssueWrite(thread_, slot->addr)) {
                continue; // Write buffer full; a later load may still go.
            }
            slot->issued = true;
            slot->done = true; // Stores retire into the write buffer.
            stats_.stores_issued += 1;
        }
        unissued_.erase(unissued_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
    }
    return false;
}

bool
Core::Fetch()
{
    // Fetch changes state iff the window has room and the trace has not
    // been found exhausted (every path below then appends or pulls; an
    // exhausted trace leaves nothing in fetching_).
    const bool progress =
        window_occupancy_ < config_.window_size && !trace_exhausted_;
    std::uint32_t budget = config_.width;
    bool memory_fetched = false;
    while (budget > 0 && window_occupancy_ < config_.window_size) {
        if (!fetching_.has_value()) {
            if (trace_exhausted_) {
                return progress;
            }
            fetching_ = trace_.Next();
            if (!fetching_.has_value()) {
                trace_exhausted_ = true;
                return progress;
            }
            fetch_compute_left_ = fetching_->compute_instructions;
        }
        if (fetch_compute_left_ > 0) {
            const std::uint32_t n = std::min(
                {budget, fetch_compute_left_,
                 config_.window_size - window_occupancy_});
            if (!window_.empty() &&
                window_.back().kind == Slot::Kind::kCompute) {
                window_.back().count += n;
            } else {
                Slot slot;
                slot.kind = Slot::Kind::kCompute;
                slot.count = n;
                window_.push_back(slot);
            }
            window_occupancy_ += n;
            budget -= n;
            fetch_compute_left_ -= n;
            continue;
        }
        // The entry's memory operation; at most one per cycle.
        if (memory_fetched) {
            return progress;
        }
        Slot slot;
        slot.kind = fetching_->is_write ? Slot::Kind::kStore
                                        : Slot::Kind::kLoad;
        slot.addr = fetching_->addr;
        slot.depends_on_prev = fetching_->depends_on_prev;
        window_.push_back(slot);
        unissued_.push_back(&window_.back());
        window_occupancy_ += 1;
        budget -= 1;
        memory_fetched = true;
        fetching_.reset();
    }
    return progress;
}

void
Core::OnReadComplete(RequestId id)
{
    const auto entry =
        std::find_if(in_flight_.begin(), in_flight_.end(),
                     [id](const auto& load) { return load.first == id; });
    PARBS_ASSERT(entry != in_flight_.end(),
                 "read completion for an unknown request");
    entry->second->done = true;
    *entry = in_flight_.back();
    in_flight_.pop_back();
    stats_.loads_completed += 1;
}

bool
Core::Done() const
{
    return trace_exhausted_ && window_.empty() && !fetching_.has_value();
}

} // namespace parbs

#include "sim/config.hh"

#include <cstdlib>

#include "common/assert.hh"

namespace parbs {

void
SystemConfig::Validate() const
{
    if (num_cores == 0) {
        PARBS_FATAL("system: num_cores must be nonzero");
    }
    if (cpu_to_dram_ratio == 0) {
        PARBS_FATAL("system: cpu_to_dram_ratio must be nonzero");
    }
    timing.Validate();
    geometry.Validate();
    controller.Validate();
    core.Validate();
    observability.Validate();
}

void
SystemConfig::EnableChecks()
{
    // Validation runs stay on the serial engine: it is the reference the
    // sharded engine is verified against, and the checker's value is in
    // re-deriving, not re-parallelizing, the command stream.
    channel_jobs = 1;
    // Every DRAM command re-validated against the shadow protocol model.
    controller.protocol_check = true;
    // The skip-ahead analogue of the protocol check: every skipped cycle
    // is re-scanned to prove no ready command was skippable.
    controller.verify_fast_path = true;
    // And its core-side twin: every core ticks every cycle, proving each
    // cycle the event-driven sweep skipped changed nothing.
    verify_core_fast_path = true;
    // And the selection analogue: every pick made by the indexed per-bank
    // path is cross-checked against the full-scan path.
    controller.verify_indexed_selection = true;
    // Above 32 cores the double selection dominates validation wall-clock,
    // so sample every 61st decision there (61 is prime, so the sample
    // never locks onto a periodic scheduler pattern).  Sound: a divergence
    // is a deterministic function of controller state and persists once
    // it appears, so sampling delays detection by a bounded number of
    // decisions but cannot miss a diverged run.
    controller.verify_sample_period = num_cores > 32 ? 61 : 1;
}

bool
ChecksRequested()
{
    const char* check = std::getenv("PARBS_CHECK");
    return check != nullptr && check[0] != '\0' && check[0] != '0';
}

SystemConfig
SystemConfig::Baseline(std::uint32_t cores)
{
    if (cores == 0) {
        PARBS_FATAL("baseline requires at least one core");
    }
    // "DRAM channels scaled with cores: 1, 2, 4 parallel lock-step channels
    // for 4, 8, 16 cores" — generalized to cores/4, saturating at the
    // geometry maximum of 16 channels (128+ cores then scale by ranks).
    std::uint32_t channels = cores >= 4 ? cores / 4 : 1;
    if (channels > 16) {
        channels = 16;
    }
    return Baseline(cores, channels);
}

SystemConfig
SystemConfig::Baseline(std::uint32_t cores, std::uint32_t channels)
{
    if (cores == 0) {
        PARBS_FATAL("baseline requires at least one core");
    }
    if (channels == 0 || channels > 16 ||
        (channels & (channels - 1)) != 0) {
        PARBS_FATAL("baseline channels must be a power of two in 1..16");
    }
    SystemConfig config;
    config.num_cores = cores;
    config.geometry.channels = channels;
    // Keep the paper's one-bank-group-per-4-cores capacity ratio: once the
    // channel count stops absorbing it, add ranks per channel instead.
    const std::uint32_t groups = cores >= 4 ? cores / 4 : 1;
    config.geometry.ranks_per_channel =
        groups > channels ? groups / channels : 1;
    return config;
}

} // namespace parbs

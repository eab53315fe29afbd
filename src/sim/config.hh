/**
 * @file
 * Whole-system configuration: the paper's Table 2 baseline and its 4/8/16
 * core variants (DRAM channels scale with cores: 1, 2, 4 channels).
 */

#ifndef PARBS_SIM_CONFIG_HH
#define PARBS_SIM_CONFIG_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "cpu/core.hh"
#include "dram/timing.hh"
#include "mem/controller.hh"
#include "obs/observability.hh"
#include "sched/factory.hh"

namespace parbs {

/** Complete CMP + memory-system configuration. */
struct SystemConfig {
    std::uint32_t num_cores = 4;
    /** CPU cycles per DRAM command-clock cycle (4 GHz vs DDR2-800). */
    std::uint32_t cpu_to_dram_ratio = 10;

    dram::TimingParams timing;
    dram::Geometry geometry;
    ControllerConfig controller;
    CoreConfig core;
    SchedulerConfig scheduler;

    /**
     * Extension point: when set, the System builds each channel's
     * scheduler by calling this factory instead of consulting `scheduler`,
     * so user-defined Scheduler subclasses plug in without being
     * registered (see examples/custom_scheduler.cpp).
     */
    std::function<std::unique_ptr<Scheduler>()> scheduler_factory;

    /** XOR-based address-to-bank mapping (Table 2 baseline). */
    bool xor_bank_hash = true;

    /** Event tracing / time-series sampling / latency anatomy (off by
     *  default: disabled observability is a null-pointer check per site). */
    obs::ObservabilityConfig observability;

    /**
     * Intra-run parallelism: worker threads advancing the memory
     * controllers inside one System::Run (DESIGN.md §5g).  1 keeps the
     * serial cycle loop; 0 means one worker per channel, clamped to the
     * hardware threads; values above the channel count are clamped.
     * Results are bit-identical for every value — sharding changes only
     * which thread executes a controller's ticks, never their order or
     * inputs — so this is purely a wall-clock knob.  Single-channel
     * systems always run serial.
     */
    unsigned channel_jobs = 1;

    /**
     * Reference check for the event-driven core sweep (DESIGN.md §5d):
     * every core ticks every cycle, and a core the sweep had asleep must
     * change nothing but its cycle and stall counters.  Enabled by
     * PARBS_CHECK=1; results are identical either way.
     */
    bool verify_core_fast_path = false;

    /**
     * Fixed latency added to every read completion before the core sees the
     * data, in CPU cycles: L2 miss handling, the on-chip interconnect, and
     * the controller pipeline.  60 cycles reproduces the paper's Table 2
     * uncontended round trips (row hit 160, closed 240, conflict 320 CPU
     * cycles) on top of the pure DRAM timing.
     */
    std::uint32_t extra_read_latency_cpu = 60;

    /** Master seed; all simulator randomness derives from it. */
    std::uint64_t seed = 1;

    /** @throws ConfigError if any component is invalid. */
    void Validate() const;

    /**
     * The paper's baseline for @p cores cores (4, 8, or 16): DDR2-800
     * timing, 8 banks, 2 KB rows, and cores/4 memory channels.  Beyond 64
     * cores the channel count saturates at the geometry maximum (16) and
     * capacity instead scales by adding ranks per channel, so 128- and
     * 256-core baselines stay valid geometries.
     */
    static SystemConfig Baseline(std::uint32_t cores);

    /**
     * Baseline with an explicit channel count (must be a power of two,
     * 1..16).  Ranks per channel scale as max(1, cores / (4 * channels)),
     * keeping one bank group per 4 cores of the paper's ratio; the
     * one-argument overload picks channels = clamp(cores / 4, 1, 16).
     */
    static SystemConfig Baseline(std::uint32_t cores, std::uint32_t channels);
};

} // namespace parbs

#endif // PARBS_SIM_CONFIG_HH

/**
 * @file
 * Inference reports, the accelerator configuration they are priced
 * under, and their human-readable printers.
 *
 * An InferenceReport is the timing answer for one (possibly batched)
 * inference: per-stage latency with the Figure-14 phase breakdown,
 * totals, energy, power, and batched throughput (paper §IV-E: filter
 * loading is paid once per layer and amortized across the batch;
 * batch outputs that overflow the reserved-way capacity spill to DRAM
 * and are re-loaded, which is why the heavy early layers dump under
 * batching). Benches and examples share the printers so every
 * table/figure binary emits the same row format the paper's
 * evaluation uses.
 */

#ifndef NC_CORE_REPORT_HH
#define NC_CORE_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "cache/dram.hh"
#include "cache/geometry.hh"
#include "core/cost_model.hh"
#include "core/energy.hh"

namespace nc::core
{

/** Result of one (possibly batched) inference simulation. */
struct InferenceReport
{
    std::string networkName;
    unsigned batch = 1;
    unsigned sockets = 1;

    std::vector<StageCost> stages;
    PhaseBreakdown phases; ///< summed over stages (per image)

    /**
     * Image-parallel pass structure (§IV-E / Figure 16): how many
     * images the spare array capacity executes concurrently once the
     * filters are stationary, and how many time-sliced passes this
     * batch therefore needs — the same capacity arithmetic the
     * functional runBatch fan-out uses (mapping::planBatchBands), so
     * the analytic and functional batch paths agree on structure.
     */
    unsigned imageSlots = 1;
    uint64_t batchPasses = 1;

    /**
     * @name Fault-tolerance counters (cumulative for the model)
     *
     * Zero unless fault injection is configured. arraysRetired
     * counts BIST retirements plus runtime canary retirements;
     * faultsDetected counts runtime canary detections; passRetries
     * counts passes re-executed after a detect→repair cycle.
     */
    /// @{
    uint64_t faultsDetected = 0;
    uint64_t arraysRetired = 0;
    uint64_t passRetries = 0;
    /// @}

    /**
     * @name Static program verification (compile-time, cumulative)
     *
     * Layer programs the abstract interpreter
     * (core/program_verify.hh) proved legal at compile (and after
     * any runtime repair re-placement), and the wall milliseconds
     * that proof cost — always part of compile time, never of the
     * modeled inference latency.
     */
    /// @{
    uint64_t programsVerified = 0;
    double verifyMs = 0.0;
    /// @}

    /** Batch-1 equivalent per-image latency, picoseconds. */
    double latencyPs = 0;
    /** Whole-batch wall time, picoseconds (one socket). */
    double batchPs = 0;
    /** Extra DRAM spill time per batch (reserved way overflow). */
    double spillPs = 0;

    EnergyReport energy;

    double latencyMs() const { return latencyPs * picoToMs; }
    double batchMs() const { return batchPs * picoToMs; }

    /** Inferences per second across all sockets. */
    double
    throughput() const
    {
        return batchPs > 0
                   ? static_cast<double>(batch) * sockets /
                         (batchPs * picoToSec)
                   : 0.0;
    }

    double avgPowerW() const;
};

/** Configuration of the accelerator model. */
struct NeuralCacheConfig
{
    cache::Geometry geometry = cache::Geometry::xeonE5_35MB();
    CostConfig cost;
    EnergyConfig energy;
    cache::DramModel dram;
    /** Sockets contributing throughput (paper: dual socket). */
    unsigned sockets = 2;
};

/** Per-stage latency table (Figure 13 rows for one device). */
void printStageTable(std::ostream &os, const InferenceReport &rep);

/** Phase breakdown with percentages (Figure 14). */
void printBreakdown(std::ostream &os, const InferenceReport &rep);

/** Energy / power summary (Table III row). */
void printEnergy(std::ostream &os, const InferenceReport &rep);

/**
 * Machine-readable flat dump ("key value" per line, gem5 stats
 * style): totals, phases, per-stage latencies, energy components.
 */
void dumpStats(std::ostream &os, const InferenceReport &rep);

/**
 * Dump every parameter of an accelerator configuration (geometry,
 * clocks, calibration constants, energy model) so a run is fully
 * reproducible from its log.
 */
void printConfig(std::ostream &os, const NeuralCacheConfig &cfg);

} // namespace nc::core

#endif // NC_CORE_REPORT_HH

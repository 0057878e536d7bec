/**
 * @file
 * The Neural Cache per-layer cost model (paper §IV, §V, §VI-A).
 *
 * For every stage the model derives seven phases, matching the paper's
 * Figure 14 breakdown:
 *
 *   filterLoad   - DRAM stream of the stage's weights + broadcast fill
 *   inputStream  - moving input windows from the reserved way into
 *                  compute arrays, once per serial pass
 *   outputXfer   - draining quantized outputs back to the reserved way
 *   mac          - bit-serial multiply-accumulates (in lock-step)
 *   reduce       - cross-lane channel reduction trees
 *   quant        - per-layer min/max search + fixed-point requantization
 *   pool         - max/avg pooling compute
 *
 * Arithmetic cycles come in two modes:
 *  - PaperCalibrated (default): the per-MAC and per-reduction cycle
 *    constants the paper reports for its Conv2D_2b anchor (236
 *    cycles/MAC, 660-cycle reduction) — reproduces the published
 *    absolute numbers.
 *  - Analytic: our exact micro-op counts from bitserial/cost.hh —
 *    first-principles numbers, same shape, roughly 2x faster
 *    arithmetic (bench/ablation_arith_mode prints the comparison).
 */

#ifndef NC_CORE_COST_MODEL_HH
#define NC_CORE_COST_MODEL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bitserial/cost.hh"
#include "cache/dram.hh"
#include "cache/geometry.hh"
#include "cache/interconnect.hh"
#include "common/units.hh"
#include "dnn/layers.hh"
#include "mapping/plan.hh"
#include "sram/timing.hh"

namespace nc::core
{

/** Arithmetic-cycle source. */
enum class ArithMode { PaperCalibrated, Analytic };

const char *arithModeName(ArithMode m);

/** All tunables of the cost model. */
struct CostConfig
{
    ArithMode mode = ArithMode::PaperCalibrated;
    unsigned bits = 8;            ///< element precision
    unsigned accumulatorBits = 24; ///< partial-sum width (3 bytes)

    /** Paper-calibrated constants (§VI-A anchor). */
    double paperMacCycles = 236.0;   ///< cycles per 8-bit MAC
    double paperReduceCycles = 660.0; ///< cycles per channel reduction

    /** Analytic-mode knobs. */
    bitserial::AluConfig alu;
    /** Reduction slowdown once operands span >2 arrays. */
    double interArrayReduceFactor = 2.0;

    /** Quantization cycles per serial pass (min/max trees + requant);
     * 0 selects the analytic estimate. */
    double quantCyclesPerPass = 0.0;

    /**
     * Input-stream calibration: the structural model charges every
     * compute way an independent window fill, but consecutive ways
     * work on consecutive output pixels whose windows overlap heavily
     * and ride the same bus broadcast; the factor discounts that
     * overlap (calibrated to Figure 14's 15% input share).
     */
    double inputStreamFactor = 0.40;
    /**
     * Output-drain calibration: quantized outputs leave through the
     * 32-bit array ports and the transpose gateway rather than the
     * full 256-bit bus, i.e. 8x slower than a raw bus stream
     * (Figure 14's 4% output share).
     */
    double outputDrainFactor = 8.0;

    /**
     * Double-buffer input windows in the spare word lines
     * (plan.freeRows) so pass N+1's window streams while pass N
     * computes; only the un-hidden remainder shows up as input time.
     * Off by default — the paper's breakdown (Figure 14) charges
     * streaming serially; ablation_overlap quantifies the gain.
     */
    bool overlapInputStream = false;

    sram::TimingParams timing;
};

/** Per-phase picosecond costs of one stage (Figure 14 categories). */
struct PhaseBreakdown
{
    double filterLoadPs = 0;
    double inputStreamPs = 0;
    double outputXferPs = 0;
    double macPs = 0;
    double reducePs = 0;
    double quantPs = 0;
    double poolPs = 0;

    double
    totalPs() const
    {
        return filterLoadPs + inputStreamPs + outputXferPs + macPs +
               reducePs + quantPs + poolPs;
    }

    PhaseBreakdown &operator+=(const PhaseBreakdown &o);
};

/** Cost report of one stage. */
struct StageCost
{
    std::string name;
    PhaseBreakdown phases;
    uint64_t serialPasses = 0;   ///< max over the stage's ops
    double utilization = 0.0;    ///< conv-weighted mean utilization
    uint64_t activeArrayCycles = 0; ///< sum over arrays (for energy)
    uint64_t streamedRows = 0;   ///< array row writes (for energy)
    uint64_t dramBytes = 0;      ///< DRAM traffic (for energy)
    uint64_t wireBytes = 0;      ///< on-chip bus/ring bytes (energy)

    double totalPs() const { return phases.totalPs(); }
};

/**
 * The cost model over one cache configuration. Filters stream once
 * per layer over the DRAM channel; every array fill and output drain
 * is priced on the intra-slice bus. The ring and the CBox transpose
 * gateway are not charged here (bench/ablation_tmu prices the CBox
 * on its own).
 */
class CostModel
{
  public:
    CostModel(cache::Geometry geom, CostConfig cfg = {},
              cache::DramModel dram = {});

    const cache::Geometry &geometry() const { return geom; }
    const CostConfig &config() const { return cfg; }
    const cache::DramModel &dram() const { return dramModel; }

    /** @name Arithmetic cycle primitives (per convolution) */
    /// @{
    double macCyclesPerConv(const mapping::ConvPlan &plan) const;
    double reduceCyclesPerConv(const mapping::ConvPlan &plan) const;
    double quantCyclesPerPass() const;
    /// @}

    /** @name Canonical program charges (program_verify cross-check)
     * Exact cycle totals of the per-layer instruction streams both
     * functional kernels issue, from the same impl* formulas the ALU
     * returns. The static program verifier proves its per-opcode sum
     * equals these bit-exact, so the analytic constants and the
     * verified programs can never drift apart.
     */
    /// @{
    /** One conv output window: zero the partial, @p eff_rs MACs,
     * one cross-lane reduction over @p lanes lanes (Figure 10). */
    uint64_t convWindowProgramCycles(unsigned lanes,
                                     unsigned eff_rs) const;
    /** The four-instruction §IV-D residual merge. */
    uint64_t eltwiseProgramCycles() const;
    /** One max-pool window: seed + (window-1) MaxInto folds. */
    uint64_t maxPoolWindowProgramCycles(unsigned window) const;
    /// @}

    /** Cost of one convolution op. */
    StageCost convCost(const dnn::ConvOp &op) const;
    /** Cost of one pooling op. */
    StageCost poolCost(const dnn::PoolOp &op) const;
    /** Cost of a residual element-wise add. */
    StageCost eltwiseCost(const dnn::EltwiseOp &op) const;
    /** Cost of a whole stage (branches serial). */
    StageCost stageCost(const dnn::Stage &stage) const;

    /** Picoseconds of @p cycles on the compute clock. */
    double
    computePs(double cycles) const
    {
        return cfg.timing.computeClock.cyclesToPs(cycles);
    }

  private:
    cache::Geometry geom;
    CostConfig cfg;
    cache::DramModel dramModel;
    cache::IntraSliceBus sliceBus;
};

} // namespace nc::core

#endif // NC_CORE_COST_MODEL_HH

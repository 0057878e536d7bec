#include "core/cost_model.hh"

#include <algorithm>

#include "bitserial/extensions.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace nc::core
{

const char *
arithModeName(ArithMode m)
{
    switch (m) {
      case ArithMode::PaperCalibrated:
        return "paper-calibrated";
      case ArithMode::Analytic:
        return "analytic";
    }
    return "?";
}

PhaseBreakdown &
PhaseBreakdown::operator+=(const PhaseBreakdown &o)
{
    filterLoadPs += o.filterLoadPs;
    inputStreamPs += o.inputStreamPs;
    outputXferPs += o.outputXferPs;
    macPs += o.macPs;
    reducePs += o.reducePs;
    quantPs += o.quantPs;
    poolPs += o.poolPs;
    return *this;
}

CostModel::CostModel(cache::Geometry geom_, CostConfig cfg_,
                     cache::DramModel dram_)
    : geom(std::move(geom_)), cfg(cfg_), dramModel(dram_)
{
}

double
CostModel::macCyclesPerConv(const mapping::ConvPlan &plan) const
{
    if (cfg.mode == ArithMode::PaperCalibrated)
        return cfg.paperMacCycles * plan.ft.effRS;
    return static_cast<double>(bitserial::implMacScratchCycles(
               cfg.bits, cfg.accumulatorBits)) *
           plan.ft.effRS;
}

double
CostModel::reduceCyclesPerConv(const mapping::ConvPlan &plan) const
{
    if (plan.lanesPerConv <= 1)
        return 0.0;
    if (cfg.mode == ArithMode::PaperCalibrated)
        return cfg.paperReduceCycles;
    double cycles = static_cast<double>(bitserial::implReduceSumCycles(
        cfg.accumulatorBits, plan.lanesPerConv,
        cfg.alu.moveCyclesPerRow));
    if (!plan.fitsSenseAmpPair)
        cycles *= cfg.interArrayReduceFactor;
    return cycles;
}

double
CostModel::quantCyclesPerPass() const
{
    if (cfg.quantCyclesPerPass > 0.0)
        return cfg.quantCyclesPerPass;
    // Fixed-point requantization of each buffered output: one widened
    // multiply by the CPU-provided scalar, a shift, and an offset add
    // (paper §IV-D), applied to the 32-bit accumulated outputs.
    return static_cast<double>(
        bitserial::implMulCycles(cfg.bits, 32) +
        bitserial::implShiftCycles(32) +
        bitserial::implAddCycles(32, false));
}

uint64_t
CostModel::convWindowProgramCycles(unsigned lanes,
                                   unsigned eff_rs) const
{
    // zero(partial[redBits]) + eff_rs MACs through the 2-byte
    // scratchpad + one cross-lane reduction — exactly the macro-op
    // stream convWindowProgram() emits and both conv kernels issue.
    unsigned red_bits =
        cfg.accumulatorBits + log2Ceil(lanes);
    return bitserial::implCopyCycles(red_bits) +
           uint64_t(eff_rs) * bitserial::implMacScratchCycles(
                                  cfg.bits, cfg.accumulatorBits) +
           bitserial::implReduceSumCycles(cfg.accumulatorBits, lanes,
                                          cfg.alu.moveCyclesPerRow);
}

uint64_t
CostModel::eltwiseProgramCycles() const
{
    // Widen-add (carry-out stored), multiply by the requant scalar,
    // truncating shift, in-array clamp (§IV-D residual merge).
    unsigned b = cfg.bits;
    return bitserial::implAddCycles(b, /*store_carry=*/true) +
           bitserial::implMulCycles(b + 1, b) +
           bitserial::implShiftCycles(2 * b + 1) +
           bitserial::implSaturateCycles(2 * b + 1, b);
}

uint64_t
CostModel::maxPoolWindowProgramCycles(unsigned window) const
{
    nc_assert(window >= 1, "empty pooling window");
    return bitserial::implCopyCycles(cfg.bits) +
           uint64_t(window - 1) * bitserial::implMaxCycles(cfg.bits);
}

namespace
{

/** Cycles of the once-per-layer min/max search (paper §IV-D). */
double
minMaxOnceCycles(const CostConfig &cfg, unsigned cols)
{
    // In-array min and max trees over the 32-bit outputs, then a short
    // bus tree across arrays/slices (rare enough that the paper calls
    // its penalty small); we charge a flat thousand bus cycles.
    return 2.0 * static_cast<double>(bitserial::implReduceMaxCycles(
               32, cols, cfg.alu.moveCyclesPerRow)) +
           1000.0;
}

} // namespace

StageCost
CostModel::convCost(const dnn::ConvOp &op) const
{
    mapping::ConvPlan plan = mapping::planConv(op, geom);

    StageCost cost;
    cost.name = op.name;
    cost.serialPasses = plan.serialPasses;
    cost.utilization = plan.utilization;

    double passes = static_cast<double>(plan.serialPasses);
    double mac = macCyclesPerConv(plan);
    double reduce = reduceCyclesPerConv(plan);
    double quant = quantCyclesPerPass();
    double minmax = minMaxOnceCycles(cfg, geom.arrayCols);

    cost.phases.macPs = computePs(passes * mac);
    cost.phases.reducePs = computePs(passes * reduce);
    cost.phases.quantPs = computePs(passes * quant + minmax);

    // Filters: one DRAM stream per layer, broadcast over ring and bus;
    // the array-fill tail is one way's worth (all ways receive the
    // broadcast concurrently).
    cost.phases.filterLoadPs =
        dramModel.transferPs(op.filterBytes()) +
        sliceBus.fillWayPs(plan.filterRows, geom.arrayCols);

    // Inputs: every serial pass stages a fresh window into each
    // compute way (ways hold replicated filters and work on different
    // output pixels, so each wants its own window; arrays inside a
    // way share it, so the bank latch halves the stream).
    unsigned rows_first = plan.inputRows;
    unsigned rows_later = plan.newInputBytesPerWindow * cfg.bits;
    double first = sliceBus.fillWayPs(rows_first, geom.arrayCols, true);
    double later = sliceBus.fillWayPs(rows_later, geom.arrayCols, true);
    double first_ps =
        first * geom.computeWays() * cfg.inputStreamFactor;
    double later_ps =
        later * geom.computeWays() * cfg.inputStreamFactor;
    if (cfg.overlapInputStream) {
        // Double-buffered: a pass's stream hides under the previous
        // pass's compute; only the excess is exposed. The first
        // window has nothing to hide under.
        double compute_ps = computePs(mac + reduce + quant);
        later_ps = std::max(0.0, later_ps - compute_ps);
    }
    cost.phases.inputStreamPs =
        first_ps + (passes - 1) * later_ps;

    // Outputs: one quantized byte per convolution drained to the
    // reserved way, slices in parallel.
    uint64_t out_bytes_per_pass_slice =
        divCeil(plan.parallelConvs, geom.slices);
    cost.phases.outputXferPs = passes *
                               sliceBus.streamPs(out_bytes_per_pass_slice) *
                               cfg.outputDrainFactor;

    // Energy bookkeeping.
    double busy_arrays =
        static_cast<double>(geom.computeArrays()) * plan.utilization;
    if (plan.convsPerArray >= 1) {
        // Lanes the convs actually occupy within each busy array.
        double lane_frac =
            static_cast<double>(plan.convsPerArray * plan.lanesPerConv) /
            geom.arrayCols;
        busy_arrays *= lane_frac;
    }
    cost.activeArrayCycles = static_cast<uint64_t>(
        passes * (mac + reduce + quant) * busy_arrays);
    cost.streamedRows = static_cast<uint64_t>(
        plan.filterRows * static_cast<double>(geom.computeArrays()) +
        passes * (rows_later * busy_arrays));
    cost.dramBytes = op.filterBytes();
    cost.wireBytes = static_cast<uint64_t>(
        op.filterBytes() +
        passes * rows_later * geom.arrayCols / 8 *
            geom.computeWays() * geom.slices / 8 +
        op.convCount());
    return cost;
}

StageCost
CostModel::poolCost(const dnn::PoolOp &op) const
{
    mapping::PoolPlan plan = mapping::planPool(op, geom);

    StageCost cost;
    cost.name = op.name;
    cost.serialPasses = plan.serialPasses;
    cost.utilization = plan.utilization;

    double passes = static_cast<double>(plan.serialPasses);
    double per_window;
    if (op.isAvg) {
        // Running sum over the window, then divide (shift when the
        // window is a power of two; Inception's 8x8 head is).
        per_window =
            static_cast<double>(op.r * op.s - 1) *
            bitserial::implAddCycles(2 * cfg.bits, false);
        if (isPow2(uint64_t(op.r) * op.s)) {
            per_window += bitserial::implShiftCycles(2 * cfg.bits);
        } else {
            unsigned dbits = log2Ceil(uint64_t(op.r) * op.s) + 1;
            per_window +=
                bitserial::implDivCycles(2 * cfg.bits, dbits);
        }
    } else {
        per_window = static_cast<double>(op.r * op.s - 1) *
                     bitserial::implMaxCycles(cfg.bits);
    }
    cost.phases.poolPs = computePs(passes * per_window);

    // Window inputs stream like conv inputs.
    double fill =
        sliceBus.fillWayPs(plan.inputRows, geom.arrayCols, true);
    cost.phases.inputStreamPs =
        passes * fill * geom.computeWays() * cfg.inputStreamFactor;

    uint64_t out_bytes_per_pass_slice =
        divCeil(plan.parallelWindows, geom.slices);
    cost.phases.outputXferPs = passes *
                               sliceBus.streamPs(out_bytes_per_pass_slice) *
                               cfg.outputDrainFactor;

    double busy =
        static_cast<double>(geom.computeArrays()) * plan.utilization;
    cost.activeArrayCycles =
        static_cast<uint64_t>(passes * per_window * busy);
    cost.streamedRows =
        static_cast<uint64_t>(passes * plan.inputRows * busy);
    cost.wireBytes = op.inputBytes() + op.outputBytes();
    return cost;
}

StageCost
CostModel::eltwiseCost(const dnn::EltwiseOp &op) const
{
    StageCost cost;
    cost.name = op.name;

    // One element pair per bit line: both operands already sit in the
    // reserved way, stream in, add in 8+1 cycles, stream out.
    uint64_t slots = uint64_t(geom.computeArrays()) * geom.arrayCols;
    cost.serialPasses = divCeil(op.elements(), slots);
    cost.utilization =
        static_cast<double>(op.elements()) /
        (static_cast<double>(cost.serialPasses) * slots);

    double passes = static_cast<double>(cost.serialPasses);
    double add_cycles =
        static_cast<double>(bitserial::implAddCycles(cfg.bits, true));
    // Charge the arithmetic to the MAC phase (it is vector add work).
    cost.phases.macPs = computePs(passes * add_cycles);

    // Two operand bytes in, one out, per lane: 2x8 + 8 rows.
    double fill =
        sliceBus.fillWayPs(3 * cfg.bits, geom.arrayCols, true);
    cost.phases.inputStreamPs =
        passes * fill * geom.computeWays() * cfg.inputStreamFactor;
    uint64_t out_bytes_per_pass_slice = divCeil(slots, geom.slices);
    cost.phases.outputXferPs =
        passes * sliceBus.streamPs(out_bytes_per_pass_slice) *
        cfg.outputDrainFactor;

    double busy =
        static_cast<double>(geom.computeArrays()) * cost.utilization;
    cost.activeArrayCycles =
        static_cast<uint64_t>(passes * add_cycles * busy);
    cost.streamedRows =
        static_cast<uint64_t>(passes * 3 * cfg.bits * busy);
    cost.wireBytes = op.inputBytes() + op.outputBytes();
    return cost;
}

StageCost
CostModel::stageCost(const dnn::Stage &stage) const
{
    StageCost total;
    total.name = stage.name;

    uint64_t conv_weight = 0;
    double util_weighted = 0.0;

    for (const auto &branch : stage.branches) {
        for (const auto &op : branch.ops) {
            StageCost c;
            if (op.isConv())
                c = convCost(op.conv);
            else if (op.isPool())
                c = poolCost(op.pool);
            else
                c = eltwiseCost(op.elt);
            total.phases += c.phases;
            total.serialPasses =
                std::max(total.serialPasses, c.serialPasses);
            total.activeArrayCycles += c.activeArrayCycles;
            total.streamedRows += c.streamedRows;
            total.dramBytes += c.dramBytes;
            total.wireBytes += c.wireBytes;
            if (op.isConv()) {
                uint64_t w = op.conv.convCount();
                conv_weight += w;
                util_weighted += c.utilization * static_cast<double>(w);
            }
        }
    }
    total.utilization =
        conv_weight ? util_weighted / static_cast<double>(conv_weight)
                    : 1.0;
    return total;
}

} // namespace nc::core

/**
 * @file
 * Mapping plans: how one op spreads over the compute cache
 * (paper §IV-A/B, Figures 9-11).
 *
 * A ConvPlan captures, for one convolution sub-layer:
 *  - the per-array row layout (Figure 10): filter band, input band,
 *    scratchpad, partial sum, output buffer, reduction operands;
 *  - lanes per convolution (padded channels) and how many filter
 *    batches (M's) share an array;
 *  - the cache-wide parallelism: convolutions in flight, serial
 *    passes, and the resulting array utilization;
 *  - the slice partition of output pixels (consecutive E's per slice,
 *    Figure 11).
 *
 * Pool layers map like convs without filters (PoolPlan). The
 * functional executor's side is FunctionalConvPlan, planned once per
 * compiled conv, and the ConvLaneTable built from it.
 */

#ifndef NC_MAPPING_PLAN_HH
#define NC_MAPPING_PLAN_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "bitserial/layout.hh"
#include "cache/geometry.hh"
#include "dnn/layers.hh"
#include "mapping/filter_transform.hh"

namespace nc::mapping
{

/** Fixed word-line budget of the Figure 10 array layout (8-bit). */
struct RowBudget
{
    unsigned scratchRows = 16;  ///< 2 bytes: product scratchpad
    unsigned partialRows = 24;  ///< 3 bytes: partial sum
    unsigned outputRows = 32;   ///< 4 bytes: buffered output
    unsigned zeroRows = 1;      ///< reserved constant-zero word line

    unsigned
    overhead() const
    {
        return scratchRows + partialRows + outputRows + zeroRows;
    }
};

/** Complete placement of one convolution across the cache. */
struct ConvPlan
{
    FilterTransform ft;

    unsigned lanesPerConv = 0;   ///< bit lines one convolution uses
    unsigned arraysPerConv = 1;  ///< arrays when lanes exceed one array
    unsigned convsPerArray = 0;  ///< filter batches (M's) per array
    uint64_t parallelConvs = 0;  ///< cache-wide convolutions in flight
    uint64_t serialPasses = 0;   ///< sequential rounds
    double utilization = 0.0;    ///< busy fraction of compute slots

    unsigned filterRows = 0;     ///< word lines of stationary filters
    unsigned inputRows = 0;      ///< word lines streamed per window
    unsigned freeRows = 0;       ///< spare lines for extra input reuse
    bool fitsSenseAmpPair = true; ///< reduction stays within 2 arrays

    /** Input bytes newly streamed per window (sliding-window reuse). */
    unsigned newInputBytesPerWindow = 0;

    /** Outputs (E positions) assigned per slice (Figure 11). */
    uint64_t outputsPerSlice = 0;
};

/** Placement of a pooling op. */
struct PoolPlan
{
    uint64_t windows = 0;        ///< total pooled outputs
    uint64_t parallelWindows = 0;
    uint64_t serialPasses = 0;
    unsigned windowSize = 0;     ///< RxS inputs reduced per window
    unsigned inputRows = 0;
    double utilization = 0.0;
};

/** Build the plan of @p op on @p geom (8-bit elements). */
ConvPlan planConv(const dnn::ConvOp &op, const cache::Geometry &geom,
                  const TransformLimits &lim = {});

PoolPlan planPool(const dnn::PoolOp &op, const cache::Geometry &geom);

/**
 * How one convolution's (channels x filter positions) work spreads
 * over functional executor arrays — the §IV-A transforms applied to
 * the simulator's per-filter-batch mapping:
 *
 *  - untransformed: one array per filter batch, one channel per bit
 *    line, the whole RxS window staged (shapes the original executor
 *    ran; bit- and cycle-identical to it).
 *  - packing (1x1 filters): packFactor consecutive channels share a
 *    bit line, inputs stream one byte at a time through a single
 *    input slot.
 *  - splitting (RxS > maxFilterBytes): each channel spreads over
 *    splitFactor bit lines holding effRS filter positions each; the
 *    split partials merge in the existing cross-lane reduction.
 *  - chunking (lanes still exceed one array): the channel range is
 *    cut into `chunks` arrays per filter batch and the per-chunk
 *    accumulators merge through the shared sense amps (host-side sum
 *    in the simulator).
 */
struct FunctionalConvPlan
{
    bool fits = false;
    unsigned packFactor = 1;   ///< channels sharing one bit line
    unsigned splitFactor = 1;  ///< bit lines one channel spreads over
    unsigned effRS = 0;        ///< MAC slots (filter bytes) per lane
    unsigned chunkChannels = 0;///< input channels per array chunk
    unsigned chunks = 1;       ///< arrays one filter batch spans
    unsigned lanes = 0;        ///< bit lines per chunk (pow2 padded)

    /** Arrays one whole layer of @p m filter batches occupies. */
    uint64_t
    totalArrays(unsigned m) const
    {
        return uint64_t(m) * chunks;
    }
};

/** Plan @p op's functional-array mapping on @p geom, under the
 * default TransformLimits. */
FunctionalConvPlan planFunctionalConv(const dnn::ConvOp &op,
                                      const cache::Geometry &geom);

/**
 * The Figure-10 per-array row carve-up of one conv layer: filter
 * band, input band, 2-byte product scratchpad, partial sum with
 * cross-lane reduction headroom, reduction scratch, and the reserved
 * constant-zero word line. The conv kernel and the canonical window
 * program (core/program_verify.hh) both address this one
 * definition, so the stream the verifier proves is the stream that
 * runs.
 */
struct ConvRowLayout
{
    unsigned lanes = 0;   ///< bit lines per chunk (one per lane)
    unsigned rs = 0;      ///< MAC slots per lane (effRS)
    unsigned redBits = 0; ///< partial width incl. reduction headroom
    std::vector<bitserial::VecSlice> filt, inp;
    bitserial::VecSlice scratch, partial, redScratch;
    unsigned zrow = 0;    ///< reserved all-zero word line
};

/**
 * One run of a MAC slot's bit lines: lanes lane0, lane0 + laneStride,
 * ... hold the chunk-relative channels ch0, ch0 + chStride, ... at
 * window position (dy, dx). A full channel chunk fills `count` lanes;
 * a short last chunk fills lanesIn() of them.
 */
struct LaneRun
{
    unsigned dy = 0, dx = 0;
    unsigned lane0 = 0, laneStride = 1;
    unsigned ch0 = 0, chStride = 1;
    unsigned count = 0;

    /** Lanes the run fills in a chunk of @p channels channels. */
    unsigned
    lanesIn(unsigned channels) const
    {
        return ch0 >= channels
                   ? 0
                   : std::min(count, (channels - ch0 + chStride - 1) /
                                         chStride);
    }
};

/**
 * The §IV-A placement of one conv layer's channel chunk as data:
 * slots[k] lists the lane runs MAC slot k holds. Untransformed, slot k
 * is window position k on lane c; packed 1x1, slot k holds channels
 * l * packFactor + k on lane l; split, slot k holds position
 * j * effRS + k of channel c on lane c * splitFactor + j. Filter
 * pinning writes weights through it and the conv kernel stages every
 * window's inputs through it, so both read the one rule.
 */
struct ConvLaneTable
{
    std::vector<std::vector<LaneRun>> slots;
};

/** Build the lane table of an @p r x @p s conv under @p plan. */
ConvLaneTable makeConvLaneTable(const FunctionalConvPlan &plan,
                                unsigned r, unsigned s);

/** Word lines the untransformed carve-up of (c, r, s) needs, zero
 * row included. */
unsigned convLayoutRows(unsigned c, unsigned r, unsigned s);

/** Word lines a generalized carve-up needs: @p lanes bit lines, @p
 * mac_slots filter slots, @p input_slots staged input slots. */
unsigned convLayoutRowsEx(unsigned lanes, unsigned mac_slots,
                          unsigned input_slots);

/** Build the carve-up a FunctionalConvPlan selected. */
ConvRowLayout makeConvRowLayout(const cache::Geometry &geom,
                                const FunctionalConvPlan &plan);

/**
 * The per-array row carve-up of the §IV-D residual merge,
 * sat8(((a + b) * mult) >> shift): two operand bytes, the widened
 * 9-bit sum, the broadcast multiplier, and the 17-bit product that
 * is shifted and saturated in place. The eltwise kernel and the
 * canonical merge program (core/program_verify.hh) both address this
 * one definition — the same single-source rule ConvRowLayout
 * enforces for convolutions.
 */
struct EltwiseRowLayout
{
    bitserial::VecSlice va, vb;  ///< the two operand bytes
    bitserial::VecSlice acc;     ///< widened sum (bits + 1)
    bitserial::VecSlice gain;    ///< broadcast requant multiplier
    bitserial::VecSlice prod;    ///< acc.bits + gain.bits product
    unsigned zrow = 0;           ///< reserved all-zero word line
};

/** Build the eltwise carve-up on @p geom's array shape. */
EltwiseRowLayout makeEltwiseRowLayout(const cache::Geometry &geom);

/**
 * The per-array carve-up of §IV-D requantization,
 * sat8((acc * mult) >> shift), which the requantize kernel and the
 * canonical requant program both address: the merge's tail over a
 * 32-bit accumulator.
 */
struct RequantRowLayout
{
    bitserial::VecSlice acc;  ///< the conv accumulator (32 bits)
    bitserial::VecSlice gain; ///< broadcast requant multiplier
    bitserial::VecSlice prod; ///< acc.bits + gain.bits product
    unsigned zrow = 0;        ///< reserved all-zero word line
};

/** Build the requantization carve-up on @p geom's array shape. */
RequantRowLayout makeRequantRowLayout(const cache::Geometry &geom);

/**
 * The per-array carve-up of the broadcast max-pool fold (§IV-D
 * "designating a temporary maximum ... selective copy"): the
 * streamed element, the running maximum, and the compare scratch.
 */
struct PoolRowLayout
{
    bitserial::VecSlice cur;  ///< the window element streamed in
    bitserial::VecSlice best; ///< running maximum
    bitserial::VecSlice cmp;  ///< MaxInto compare scratch
    unsigned zrow = 0;        ///< reserved all-zero word line
};

/** Build the max-pool carve-up on @p geom's array shape. */
PoolRowLayout makePoolRowLayout(const cache::Geometry &geom);

/**
 * Functional execution plan of one stage's branch structure: per-
 * branch output shapes, the channel offset each non-shortcut branch's
 * output occupies in the stage's channel-concatenated output, and the
 * residual wiring (which branch is the shortcut feeding the eltwise
 * merges). Validates the topology rules the functional engines
 * depend on — eltwise only as a branch tail, at most one shortcut
 * branch, matching merge shapes, uniform branch input and concat
 * (h, w) — with fatal errors naming the offending op.
 */
struct StageConcatPlan
{
    struct Shape3
    {
        unsigned c = 0, h = 0, w = 0;
    };

    Shape3 input;               ///< common input of every branch
    std::vector<Shape3> branchOut;
    /** Channel offset of each branch's output in the concat (zero and
     * meaningless for the shortcut branch, whose output merges into
     * the eltwise adds instead). */
    std::vector<unsigned> concatOffset;
    int shortcutBranch = -1;    ///< index, or -1
    Shape3 out;                 ///< the stage's concatenated output
};

StageConcatPlan planStageConcat(const dnn::Stage &stage);

/**
 * Image-parallel batch banding (paper §IV-E, Figure 16): once a
 * network's filter bands are pinned stationary, the cache's spare
 * array capacity processes multiple images simultaneously. One image
 * slot is a complete copy of the network's working state — every conv
 * layer's stationary filter band plus one scratch array per
 * concurrently-executing branch — so slot k lives at flat-array
 * offset k * perImageArrays and images never share mutable arrays.
 * Batches beyond imageSlots time-slice: pass p runs images
 * [p * imageSlots, (p+1) * imageSlots) concurrently.
 */
struct BatchBandPlan
{
    /** Stationary filter arrays of one image's conv layers. */
    uint64_t filterArrays = 0;
    /** Scratch arrays per image (one per concurrent branch). */
    unsigned scratchSlots = 1;
    /** Whole per-image footprint: filter bands + scratch. */
    uint64_t perImageArrays = 1;
    /** Whole-network residency (one image's bands fit the cache). */
    bool resident = false;
    /** Images the spare capacity executes concurrently (>= 1;
     * exactly 1 in the streaming regime, whose layers time-share
     * bands and therefore cannot overlap images). */
    unsigned imageSlots = 1;

    /** Time-sliced passes a batch of @p batch images needs. */
    uint64_t
    passes(unsigned batch) const
    {
        return (uint64_t(batch) + imageSlots - 1) / imageSlots;
    }
};

/**
 * Carve per-image bands for a network whose one-image footprint is
 * @p filter_arrays stationary arrays plus @p scratch_slots scratch
 * arrays. @p fits_resident says whether one image's bands fit the
 * cache at all (callers that place layers themselves pass their
 * residency verdict; the streaming regime pins imageSlots to 1).
 * @p usable_arrays caps the capacity below the geometry total when
 * arrays have been retired (cache/health.hh); 0 means the full
 * geometry. Residency and imageSlots both honor the cap, which is
 * how capacity degrades gracefully as faults retire arrays.
 */
BatchBandPlan planBatchBands(uint64_t filter_arrays,
                             unsigned scratch_slots,
                             const cache::Geometry &geom,
                             bool fits_resident,
                             uint64_t usable_arrays = 0);

/**
 * Net-level convenience: derive the per-image footprint from every
 * conv/fc op's functional mapping (planFunctionalConv) and the
 * widest stage's branch count — the all-functional assumption the
 * analytic batch report prices. Networks with any op no functional
 * mapping can place, or whose footprint exceeds the cache, get the
 * streaming verdict (imageSlots == 1).
 */
BatchBandPlan planBatchBands(const dnn::Network &net,
                             const cache::Geometry &geom);

} // namespace nc::mapping

#endif // NC_MAPPING_PLAN_HH

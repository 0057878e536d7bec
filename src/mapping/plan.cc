#include "mapping/plan.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nc::mapping
{

ConvPlan
planConv(const dnn::ConvOp &op, const cache::Geometry &geom,
         const TransformLimits &lim, const RowBudget &budget)
{
    constexpr unsigned bits = 8;

    ConvPlan plan;
    plan.ft = transformFilter(op, lim);

    plan.lanesPerConv = plan.ft.paddedChannels;
    unsigned cols = geom.arrayCols;

    if (plan.lanesPerConv <= cols) {
        plan.arraysPerConv = 1;
        plan.convsPerArray = cols / plan.lanesPerConv;
    } else {
        plan.arraysPerConv = static_cast<unsigned>(
            divCeil(plan.lanesPerConv, cols));
        plan.convsPerArray = 0; // one conv spans several arrays
    }
    // Channel reduction is cheap while it stays within the two arrays
    // that share sense amps (paper packs 1x1 filters precisely to
    // guarantee this).
    plan.fitsSenseAmpPair = plan.arraysPerConv <= 2;

    unsigned compute_arrays = geom.computeArrays();
    if (plan.convsPerArray >= 1) {
        plan.parallelConvs =
            uint64_t(compute_arrays) * plan.convsPerArray;
    } else {
        plan.parallelConvs = compute_arrays / plan.arraysPerConv;
    }
    nc_assert(plan.parallelConvs > 0, "op '%s' too large for the cache",
              op.name.c_str());

    uint64_t total = op.convCount();
    plan.serialPasses = divCeil(total, plan.parallelConvs);
    plan.utilization =
        static_cast<double>(total) /
        (static_cast<double>(plan.serialPasses) * plan.parallelConvs);

    plan.filterRows = plan.ft.filterRows(bits);
    plan.inputRows = plan.ft.inputRows(bits);
    unsigned used =
        plan.filterRows + plan.inputRows + budget.overhead();
    if (used > geom.arrayRows) {
        nc_fatal("layout of '%s' needs %u rows, array has %u",
                 op.name.c_str(), used, geom.arrayRows);
    }
    plan.freeRows = geom.arrayRows - used;

    // Sliding-window input reuse: moving one stride along the row
    // re-reads r x (s - stride) bytes of the window (paper's 3x3 u1
    // example: 6 of 9 bytes reused). Packed 1x1 filters stream their
    // packed bytes fresh each time.
    if (plan.ft.packFactor > 1 || op.s <= op.stride) {
        plan.newInputBytesPerWindow = plan.ft.effRS;
    } else {
        unsigned reused = op.r * (op.s - op.stride);
        unsigned fresh = op.r * op.s - reused;
        plan.newInputBytesPerWindow = static_cast<unsigned>(
            divCeil(fresh, plan.ft.splitFactor));
    }

    plan.outputsPerSlice = divCeil(total, geom.slices);
    return plan;
}

PoolPlan
planPool(const dnn::PoolOp &op, const cache::Geometry &geom)
{
    constexpr unsigned bits = 8;

    PoolPlan plan;
    plan.windows = op.windowCount();
    plan.windowSize = op.r * op.s;
    plan.inputRows = plan.windowSize * bits;
    // One lane per pooled output: channels and window positions both
    // spread across bit lines (no cross-lane reduction needed; the
    // window's inputs stream through each lane serially).
    plan.parallelWindows =
        uint64_t(geom.computeArrays()) * geom.arrayCols;
    plan.serialPasses = divCeil(plan.windows, plan.parallelWindows);
    plan.utilization =
        static_cast<double>(plan.windows) /
        (static_cast<double>(plan.serialPasses) * plan.parallelWindows);
    return plan;
}

unsigned
convLayoutRowsEx(unsigned lanes, unsigned mac_slots,
                 unsigned input_slots)
{
    constexpr unsigned bits = 8;
    constexpr unsigned acc_bits = 24;
    unsigned red_bits =
        acc_bits + log2Ceil(static_cast<uint64_t>(lanes));
    // filter band + input band + 2-byte scratchpad + partial sum with
    // reduction headroom + reduction scratch + the reserved zero row.
    return (mac_slots + input_slots) * bits + 2 * bits + red_bits +
           (red_bits > 1 ? red_bits - 1 : 1) + 1;
}

unsigned
convLayoutRows(unsigned c, unsigned r, unsigned s)
{
    unsigned rs = r * s;
    return convLayoutRowsEx(
        static_cast<unsigned>(roundUpPow2(c)), rs, rs);
}

namespace
{

/**
 * Largest power-of-two lane count (<= one array's bit lines) whose
 * carve-up of @p mac_slots + @p input_slots fits the word lines;
 * zero when even a single lane does not fit.
 */
unsigned
maxLanesFor(const cache::Geometry &geom, unsigned mac_slots,
            unsigned input_slots)
{
    unsigned lanes =
        static_cast<unsigned>(roundUpPow2(geom.arrayCols));
    if (lanes > geom.arrayCols)
        lanes /= 2;
    while (lanes >= 1 &&
           convLayoutRowsEx(lanes, mac_slots, input_slots) >
               geom.arrayRows)
        lanes /= 2;
    return lanes;
}

} // namespace

FunctionalConvPlan
planFunctionalConv(const dnn::ConvOp &op, const cache::Geometry &geom,
                   const TransformLimits &lim)
{
    unsigned rs = op.r * op.s;

    FunctionalConvPlan p;
    p.effRS = rs;
    p.chunkChannels = op.c;
    p.lanes = static_cast<unsigned>(roundUpPow2(op.c));

    // The untransformed one-array-per-filter-batch mapping: kept
    // bit- and cycle-identical for every shape the original executor
    // handled.
    if (p.lanes <= geom.arrayCols &&
        convLayoutRows(op.c, op.r, op.s) <= geom.arrayRows) {
        p.fits = true;
        return p;
    }

    if (rs == 1) {
        // §IV-A filter packing: consecutive channels share a bit
        // line, inputs stream one byte at a time (no window reuse to
        // preserve), shrinking both lanes and the reduction tree.
        p.packFactor = lim.packTarget;
        p.effRS = p.packFactor;
        unsigned lanes = maxLanesFor(geom, p.effRS, 1);
        if (lanes == 0)
            return p; // fits == false
        uint64_t cap = uint64_t(lanes) * p.packFactor;
        p.chunkChannels =
            static_cast<unsigned>(std::min<uint64_t>(op.c, cap));
        p.chunks =
            static_cast<unsigned>(divCeil(op.c, p.chunkChannels));
        p.lanes = static_cast<unsigned>(roundUpPow2(
            divCeil(p.chunkChannels, p.packFactor)));
        p.fits = true;
        return p;
    }

    if (rs > lim.maxFilterBytes) {
        // §IV-A filter splitting: each channel spreads over
        // splitFactor lanes of effRS filter positions; the split
        // partials merge in the cross-lane reduction.
        p.splitFactor =
            static_cast<unsigned>(divCeil(rs, lim.maxFilterBytes));
        p.effRS =
            static_cast<unsigned>(divCeil(rs, p.splitFactor));
    }

    unsigned lanes = maxLanesFor(geom, p.effRS, p.effRS);
    unsigned cap = lanes / p.splitFactor;
    if (cap == 0)
        return p; // fits == false
    p.chunkChannels = std::min(op.c, cap);
    p.chunks = static_cast<unsigned>(divCeil(op.c, p.chunkChannels));
    p.lanes = static_cast<unsigned>(
        roundUpPow2(p.chunkChannels * p.splitFactor));
    p.fits = true;
    return p;
}

ConvRowLayout
makeConvRowLayout(const cache::Geometry &geom,
                  const FunctionalConvPlan &plan)
{
    constexpr unsigned bits = 8;
    constexpr unsigned acc_bits = 24;

    nc_assert(plan.fits, "conv layout requested for a plan that does "
              "not fit the array");

    ConvRowLayout l;
    l.lanes = plan.lanes;
    nc_assert(l.lanes <= geom.arrayCols,
              "conv layout: %u lanes exceed %u bit lines", l.lanes,
              geom.arrayCols);
    l.rs = plan.effRS;
    l.packFactor = plan.packFactor;
    l.splitFactor = plan.splitFactor;
    l.redBits = acc_bits + log2Ceil(static_cast<uint64_t>(l.lanes));
    unsigned input_slots = plan.packFactor > 1 ? 1 : l.rs;

    bitserial::RowAllocator rows(geom.arrayRows);
    l.filt.resize(l.rs);
    l.inp.resize(input_slots);
    for (unsigned k = 0; k < l.rs; ++k)
        l.filt[k] = rows.alloc(bits);
    for (unsigned k = 0; k < input_slots; ++k)
        l.inp[k] = rows.alloc(bits);
    l.scratch = rows.alloc(2 * bits);
    l.partial = rows.alloc(l.redBits);
    l.redScratch = rows.alloc(l.redBits > 1 ? l.redBits - 1 : 1);
    l.zrow = rows.zeroRow();
    // Keep the arithmetic row model and the real allocation in
    // lockstep: any layout change that touches one but not the other
    // trips here on the very first prepare.
    nc_assert(rows.used() + 1 ==
                  convLayoutRowsEx(l.lanes, l.rs, input_slots),
              "Figure-10 row model drift: allocated %u+1, model says "
              "%u", rows.used(),
              convLayoutRowsEx(l.lanes, l.rs, input_slots));
    return l;
}

bool
fitsFunctionalExecutor(const dnn::ConvOp &op,
                       const cache::Geometry &geom)
{
    return planFunctionalConv(op, geom).fits;
}

EltwiseRowLayout
makeEltwiseRowLayout(const cache::Geometry &geom)
{
    constexpr unsigned bits = 8;

    EltwiseRowLayout l;
    bitserial::RowAllocator rows(geom.arrayRows);
    l.va = rows.alloc(bits);
    l.vb = rows.alloc(bits);
    l.acc = rows.alloc(bits + 1);
    l.gain = rows.alloc(bits);
    l.prod = rows.alloc((bits + 1) + bits); // acc.bits + gain.bits
    l.zrow = rows.zeroRow();
    return l;
}

PoolRowLayout
makePoolRowLayout(const cache::Geometry &geom)
{
    constexpr unsigned bits = 8;

    PoolRowLayout l;
    bitserial::RowAllocator rows(geom.arrayRows);
    l.cur = rows.alloc(bits);
    l.best = rows.alloc(bits);
    l.cmp = rows.alloc(bits);
    l.zrow = rows.zeroRow();
    return l;
}

namespace
{

StageConcatPlan::Shape3
opInputShape(const dnn::Op &op)
{
    if (op.isConv())
        return {op.conv.c, op.conv.h, op.conv.w};
    if (op.isPool())
        return {op.pool.c, op.pool.h, op.pool.w};
    return {op.elt.c, op.elt.h, op.elt.w};
}

StageConcatPlan::Shape3
opOutputShape(const dnn::Op &op)
{
    if (op.isConv())
        return {op.conv.m, op.conv.outH(), op.conv.outW()};
    if (op.isPool())
        return {op.pool.c, op.pool.outH(), op.pool.outW()};
    return {op.elt.c, op.elt.h, op.elt.w};
}

bool
sameShape(const StageConcatPlan::Shape3 &a,
          const StageConcatPlan::Shape3 &b)
{
    return a.c == b.c && a.h == b.h && a.w == b.w;
}

} // namespace

StageConcatPlan
planStageConcat(const dnn::Stage &stage)
{
    nc_assert(!stage.branches.empty(), "stage '%s' has no branches",
              stage.name.c_str());

    StageConcatPlan plan;
    plan.branchOut.resize(stage.branches.size());
    plan.concatOffset.assign(stage.branches.size(), 0);

    bool any_eltwise = false;
    for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
        const dnn::Branch &br = stage.branches[bi];
        nc_assert(!br.ops.empty(), "branch '%s' of stage '%s' has no "
                  "ops", br.name.c_str(), stage.name.c_str());

        // Every branch reads the same stage input.
        StageConcatPlan::Shape3 in = opInputShape(br.ops.front());
        if (bi == 0)
            plan.input = in;
        else
            nc_assert(sameShape(in, plan.input),
                      "branch '%s' of stage '%s' expects %ux%ux%u "
                      "input, branch '%s' expects %ux%ux%u",
                      br.name.c_str(), stage.name.c_str(), in.c, in.h,
                      in.w, stage.branches.front().name.c_str(),
                      plan.input.c, plan.input.h, plan.input.w);

        if (br.shortcut) {
            nc_assert(plan.shortcutBranch < 0,
                      "stage '%s' has more than one shortcut branch",
                      stage.name.c_str());
            plan.shortcutBranch = static_cast<int>(bi);
        }

        bool has_eltwise = false;
        for (size_t oi = 0; oi < br.ops.size(); ++oi) {
            const dnn::Op &op = br.ops[oi];
            if (op.kind != dnn::OpKind::EltwiseAdd)
                continue;
            nc_assert(oi + 1 == br.ops.size(),
                      "eltwise '%s' must be the last op of branch "
                      "'%s'", op.elt.name.c_str(), br.name.c_str());
            nc_assert(!br.splitTail && !br.shortcut,
                      "eltwise '%s' cannot end a split-tail or "
                      "shortcut branch", op.elt.name.c_str());
            has_eltwise = true;
        }
        any_eltwise |= has_eltwise;

        // Walk the chain: each op consumes the previous output (the
        // split tail forks on the penultimate tensor; FC flattens).
        size_t serial = br.ops.size();
        if (br.splitTail) {
            nc_assert(br.ops.size() >= 2, "split-tail branch '%s' "
                      "needs at least two ops", br.name.c_str());
            serial -= 2;
        }
        StageConcatPlan::Shape3 cur = in;
        auto check_feed = [&](const dnn::Op &op,
                              const StageConcatPlan::Shape3 &feed) {
            StageConcatPlan::Shape3 want = opInputShape(op);
            if (op.isConv() && op.conv.isFullyConnected) {
                nc_assert(want.c == feed.c * feed.h * feed.w,
                          "fc '%s' expects %u inputs, previous op "
                          "produces %ux%ux%u", op.conv.name.c_str(),
                          want.c, feed.c, feed.h, feed.w);
            } else {
                nc_assert(sameShape(want, feed),
                          "op '%s' expects %ux%ux%u input, previous "
                          "op produces %ux%ux%u", op.name().c_str(),
                          want.c, want.h, want.w, feed.c, feed.h,
                          feed.w);
            }
        };
        for (size_t oi = 0; oi < serial; ++oi) {
            const dnn::Op &op = br.ops[oi];
            if (oi > 0)
                check_feed(op, cur);
            cur = opOutputShape(op);
        }
        if (br.splitTail) {
            const dnn::Op &t0 = br.ops[br.ops.size() - 2];
            const dnn::Op &t1 = br.ops[br.ops.size() - 1];
            check_feed(t0, cur);
            check_feed(t1, cur);
            StageConcatPlan::Shape3 o0 = opOutputShape(t0);
            StageConcatPlan::Shape3 o1 = opOutputShape(t1);
            nc_assert(o0.h == o1.h && o0.w == o1.w,
                      "split tail of branch '%s': %ux%u vs %ux%u "
                      "outputs cannot concatenate", br.name.c_str(),
                      o0.h, o0.w, o1.h, o1.w);
            cur = {o0.c + o1.c, o0.h, o0.w};
        }
        plan.branchOut[bi] = cur;
    }

    nc_assert(plan.shortcutBranch < 0 || any_eltwise,
              "stage '%s': shortcut branch '%s' has no eltwise merge "
              "to feed",
              stage.name.c_str(),
              stage.branches[static_cast<size_t>(plan.shortcutBranch)]
                  .name.c_str());

    // Eltwise merge shapes: the other operand is the shortcut
    // branch's output, or the stage input for identity residuals.
    StageConcatPlan::Shape3 merge_src =
        plan.shortcutBranch >= 0
            ? plan.branchOut[static_cast<size_t>(plan.shortcutBranch)]
            : plan.input;
    for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
        const dnn::Branch &br = stage.branches[bi];
        if (br.ops.back().kind != dnn::OpKind::EltwiseAdd)
            continue;
        nc_assert(sameShape(plan.branchOut[bi], merge_src),
                  "eltwise '%s' merges %ux%ux%u with a %ux%ux%u "
                  "shortcut operand",
                  br.ops.back().elt.name.c_str(), plan.branchOut[bi].c,
                  plan.branchOut[bi].h, plan.branchOut[bi].w,
                  merge_src.c, merge_src.h, merge_src.w);
    }

    // Channel-concatenate the non-shortcut branch outputs, in branch
    // order, all at one spatial size.
    unsigned offset = 0;
    for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
        if (static_cast<int>(bi) == plan.shortcutBranch)
            continue;
        const StageConcatPlan::Shape3 &o = plan.branchOut[bi];
        if (offset == 0) {
            plan.out = o;
        } else {
            nc_assert(o.h == plan.out.h && o.w == plan.out.w,
                      "branch '%s' of stage '%s' outputs %ux%u, "
                      "concat is %ux%u",
                      stage.branches[bi].name.c_str(),
                      stage.name.c_str(), o.h, o.w, plan.out.h,
                      plan.out.w);
        }
        plan.concatOffset[bi] = offset;
        offset += o.c;
    }
    plan.out.c = offset;
    return plan;
}

BatchBandPlan
planBatchBands(uint64_t filter_arrays, unsigned scratch_slots,
               const cache::Geometry &geom, bool fits_resident,
               uint64_t usable_arrays)
{
    uint64_t capacity = usable_arrays == 0 ? geom.totalArrays()
                                           : usable_arrays;
    nc_assert(capacity <= geom.totalArrays(),
              "usable capacity %llu exceeds the %llu-array geometry",
              static_cast<unsigned long long>(capacity),
              static_cast<unsigned long long>(geom.totalArrays()));
    BatchBandPlan p;
    p.filterArrays = filter_arrays;
    p.scratchSlots = std::max(scratch_slots, 1u);
    p.perImageArrays = filter_arrays + p.scratchSlots;
    p.resident = fits_resident && p.perImageArrays <= capacity;
    // Streaming layers time-share bands (and re-pin filter groups as
    // they run), so a second in-flight image would clobber the
    // first's filters — only the resident regime multi-slots.
    p.imageSlots =
        p.resident ? std::max<unsigned>(
                         1, static_cast<unsigned>(
                                capacity / p.perImageArrays))
                   : 1;
    return p;
}

BatchBandPlan
planBatchBands(const dnn::Network &net, const cache::Geometry &geom)
{
    uint64_t filters = 0;
    unsigned scratch = 1;
    bool fits = true;
    for (const dnn::Stage &stage : net.stages) {
        scratch = std::max(
            scratch, static_cast<unsigned>(stage.branches.size()));
        for (const dnn::Branch &branch : stage.branches) {
            for (const dnn::Op &op : branch.ops) {
                if (!op.isConv())
                    continue;
                FunctionalConvPlan fp =
                    planFunctionalConv(op.conv, geom);
                if (!fp.fits) {
                    fits = false;
                    continue;
                }
                filters += fp.totalArrays(op.conv.m);
            }
        }
    }
    return planBatchBands(filters, scratch, geom, fits);
}

} // namespace nc::mapping

#include "core/executor.hh"

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <utility>

#include "bitserial/alu.hh"
#include "bitserial/extensions.hh"
#include "bitserial/layout.hh"
#include "common/arena.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "core/controller.hh"
#include "core/program_verify.hh"
#include "dnn/layers.hh"
#include "sram/ownership.hh"

namespace nc::core
{

namespace bs = bitserial;

using dnn::padBefore;

namespace
{

/**
 * Most arrays one lockstep conv group runs side by side: 64 members
 * keep a worker's group array at 512 KB, and the per-array cost of a
 * micro-op already bottoms out at 16-64 members.
 */
constexpr size_t kMaxGroupArrays = 64;

/**
 * The calling thread's group array of @p members arrays of @p rows x
 * @p cols, task-private and untagged like maxPool's window arrays.
 * It persists across passes and layers: a pass's near-even split
 * hands one worker groups of two adjacent sizes, so the two most
 * recent shapes stay cached. Every member's rows and latches are
 * loaded before use, so stale contents never leak.
 */
sram::Array &
groupArray(unsigned rows, unsigned cols, unsigned members)
{
    thread_local std::array<std::unique_ptr<sram::Array>, 2> cached;
    auto fits = [&](const std::unique_ptr<sram::Array> &a) {
        return a && a->rows() == rows && a->memberCols() == cols &&
               a->members() == members;
    };
    if (!fits(cached[0])) {
        std::swap(cached[0], cached[1]);
        if (!fits(cached[0]))
            cached[0] = std::make_unique<sram::Array>(
                rows, cols * members, cols);
    }
    return *cached[0];
}

/**
 * The calling thread's one-member staging array: a window's input is
 * stored here once per channel chunk, then copied into every member
 * that reads it.
 */
sram::Array &
stagingArray(unsigned rows, unsigned cols)
{
    thread_local std::unique_ptr<sram::Array> stage;
    if (!stage || stage->rows() != rows || stage->cols() != cols)
        stage = std::make_unique<sram::Array>(rows, cols);
    return *stage;
}

} // namespace

Executor::PreparedConv
Executor::prepareConv(const dnn::QWeights &w, unsigned stride,
                      bool same_pad, uint64_t base_array,
                      uint64_t band_arrays, bool resident)
{
    PreparedConv p;
    p.ex = this;
    p.m = w.m;
    p.c = w.c;
    p.r = w.r;
    p.s = w.s;
    p.stride = stride;
    p.samePad = same_pad;
    p.base = base_array;

    dnn::ConvOp shape;
    shape.name = "prepared";
    shape.c = w.c;
    shape.r = w.r;
    shape.s = w.s;
    shape.m = w.m;
    p.fplan = mapping::planFunctionalConv(shape, cc.geometry());
    nc_assert(p.fplan.fits,
              "conv (C=%u RxS=%ux%u) exceeds every functional "
              "mapping of a %ux%u array", w.c, w.r, w.s,
              cc.geometry().arrayRows, cc.geometry().arrayCols);
    // The Figure-10 slice map and the per-window program over it:
    // every array gets the identical layout and runs the identical
    // stream, so both are derived once here.
    p.rows = mapping::makeConvRowLayout(cc.geometry(), p.fplan);
    p.prog = verify::convWindowProgram(p.rows);

    uint64_t need = p.fplan.totalArrays(w.m);
    p.band = band_arrays == 0 ? need : std::min(band_arrays, need);
    nc_assert(p.band >= p.fplan.chunks,
              "band of %llu arrays cannot hold one filter batch "
              "(%u chunks)",
              static_cast<unsigned long long>(p.band),
              p.fplan.chunks);
    p.groupBatches = static_cast<unsigned>(p.band / p.fplan.chunks);
    p.isResident = resident && p.groupBatches >= w.m;
    if (p.isResident)
        p.band = need;

    // Materialize every band array up front: the parallel regions
    // (here and in run()) must not mutate the lazy array map.
    for (uint64_t i = 0; i < p.band; ++i)
        cc.array(base_array + i);

    // Filters are stationary for the lifetime of the prepared layer
    // (the §IV-C transposed preprocessing, paid exactly once) —
    // unless the layer streams, in which case run() re-pins each
    // filter group as it cycles through the band.
    if (p.isResident)
        p.storeFilters(w, 0, w.m, 0);
    return p;
}

void
Executor::PreparedConv::pinReplica(const dnn::QWeights &w,
                                   uint64_t array_offset)
{
    nc_assert(isResident,
              "pinReplica: streaming layers time-share their band "
              "and cannot hold image replicas");
    nc_assert(w.m == m && w.c == c && w.r == r && w.s == s,
              "pinReplica: bank is %ux%ux%ux%u, layer wants "
              "%ux%ux%ux%u", w.m, w.c, w.r, w.s, m, c, r, s);
    cache::ComputeCache &cc = ex->cc;
    // Materialize the replica band up front: the image fan-out must
    // never mutate the lazy array map.
    for (uint64_t i = 0; i < band; ++i)
        cc.array(base + array_offset + i);
    storeFilters(w, 0, m, array_offset);
}

void
Executor::PreparedConv::storeFilters(const dnn::QWeights &w,
                                     unsigned first_batch,
                                     unsigned count,
                                     uint64_t array_offset)
{
    cache::ComputeCache &cc = ex->cc;
    const unsigned chunks = fplan.chunks;
    const unsigned pack = fplan.packFactor;
    const unsigned split = fplan.splitFactor;
    const unsigned rs = r * s;

    ex->pool.parallelFor(static_cast<size_t>(count) * chunks,
                         [&](size_t t) {
        // Race detector (debug): each store task owns its one array.
        [[maybe_unused]] sram::ownership::ClaimScope own(
            cc.ownershipRegistry(),
            sram::ownership::Range{base + array_offset + t, 1}, 0,
            "conv filter store");
        unsigned mi = first_batch + static_cast<unsigned>(t / chunks);
        unsigned ch = static_cast<unsigned>(t % chunks);
        sram::Array &arr =
            cc.array(base + array_offset + t);
        unsigned c0 = ch * fplan.chunkChannels;
        unsigned c1 = std::min(c, c0 + fplan.chunkChannels);

        // Streaming buffer on this worker's scratch arena: filters
        // repin every pass in the streaming regime, so a heap
        // allocation here would recur per (batch, chunk) task.
        common::ArenaScope scratch;
        std::span<uint64_t> vals = scratch.alloc(rows.lanes);
        for (unsigned k = 0; k < rows.rs; ++k) {
            std::fill(vals.begin(), vals.end(), 0);
            if (pack > 1) {
                for (unsigned l = 0; l < rows.lanes; ++l) {
                    unsigned ci = c0 + l * pack + k;
                    if (l * pack + k < fplan.chunkChannels && ci < c1)
                        vals[l] = w.at(mi, ci, 0, 0);
                }
            } else if (split > 1) {
                for (unsigned ci = c0; ci < c1; ++ci) {
                    for (unsigned j = 0; j < split; ++j) {
                        unsigned kg = j * rows.rs + k;
                        if (kg >= rs)
                            continue;
                        vals[(ci - c0) * split + j] =
                            w.at(mi, ci, kg / s, kg % s);
                    }
                }
            } else {
                for (unsigned ci = c0; ci < c1; ++ci)
                    vals[ci - c0] = w.at(mi, ci, k / s, k % s);
            }
            bs::storeVector(arr, rows.filt[k], vals);
        }
    });
}

std::vector<uint32_t>
Executor::PreparedConv::run(const dnn::QTensor &in,
                            const dnn::QWeights &w, unsigned &out_h,
                            unsigned &out_w, uint64_t array_offset)
{
    cache::ComputeCache &cc = ex->cc;
    nc_assert(in.channels() == c,
              "prepared conv expects %u input channels, got %u", c,
              in.channels());
    nc_assert(array_offset == 0 || isResident,
              "streaming conv layers run at offset 0 only (got %llu)",
              static_cast<unsigned long long>(array_offset));
    nc_assert(w.m == m && w.c == c && w.r == r && w.s == s,
              "prepared conv: bank is %ux%ux%ux%u, layer wants "
              "%ux%ux%ux%u", w.m, w.c, w.r, w.s, m, c, r, s);

    out_h = dnn::outDim(in.height(), r, stride, samePad);
    out_w = dnn::outDim(in.width(), s, stride, samePad);
    unsigned ph = padBefore(in.height(), r, stride, samePad);
    unsigned pw = padBefore(in.width(), s, stride, samePad);
    unsigned oh = out_h, ow = out_w;
    const unsigned chunks = fplan.chunks;
    const unsigned pack = fplan.packFactor;
    const unsigned split = fplan.splitFactor;
    const unsigned rs = r * s;
    const size_t win = static_cast<size_t>(oh) * ow;
    const unsigned arows = cc.geometry().arrayRows;
    const unsigned cols = cc.geometry().arrayCols;

    std::vector<uint32_t> out(static_cast<size_t>(m) * win, 0);
    // Per-chunk partial accumulators of the current pass; the chunk
    // merge below models the cross-array sense-amp reduction.
    std::vector<uint32_t> part;

    auto in_at = [&](unsigned ci, int iy, int ix) -> uint64_t {
        if (iy < 0 || ix < 0 || iy >= static_cast<int>(in.height()) ||
            ix >= static_cast<int>(in.width()))
            return 0;
        return in.at(ci, iy, ix);
    };

    // Input slot k of window (y, x) for channel chunk ch, one value
    // per lane (zero padding stays zero).
    auto fill_slot = [&](std::span<uint64_t> vals, unsigned y,
                         unsigned x, unsigned k, unsigned ch) {
        std::fill(vals.begin(), vals.end(), 0);
        unsigned c0 = ch * fplan.chunkChannels;
        unsigned c1 = std::min(c, c0 + fplan.chunkChannels);
        if (pack > 1) {
            // Packed 1x1: one byte per MAC, each lane covering
            // `pack` channels.
            int iy = static_cast<int>(y * stride) - static_cast<int>(ph);
            int ix = static_cast<int>(x * stride) - static_cast<int>(pw);
            for (unsigned l = 0; l < rows.lanes; ++l) {
                unsigned ci = c0 + l * pack + k;
                if (l * pack + k < fplan.chunkChannels && ci < c1)
                    vals[l] = in_at(ci, iy, ix);
            }
        } else if (split > 1) {
            for (unsigned ci = c0; ci < c1; ++ci) {
                for (unsigned j = 0; j < split; ++j) {
                    unsigned kg = j * rows.rs + k;
                    if (kg >= rs)
                        continue;
                    int iy = static_cast<int>(y * stride + kg / s) -
                             static_cast<int>(ph);
                    int ix = static_cast<int>(x * stride + kg % s) -
                             static_cast<int>(pw);
                    vals[(ci - c0) * split + j] = in_at(ci, iy, ix);
                }
            }
        } else {
            int iy = static_cast<int>(y * stride + k / s) -
                     static_cast<int>(ph);
            int ix = static_cast<int>(x * stride + k % s) -
                     static_cast<int>(pw);
            if (iy >= 0 && ix >= 0 &&
                iy < static_cast<int>(in.height()) &&
                ix < static_cast<int>(in.width())) {
                for (unsigned ci = c0; ci < c1; ++ci)
                    vals[ci - c0] = in.at(ci, iy, ix);
            }
        }
    };

    // One output window on `arr`: put(slot, k) lands input slot k in
    // the row slice `slot`, and the window program runs around it.
    const size_t np = prog.size();
    auto run_window = [&](sram::Array &arr, auto &&put) {
        if (pack > 1) {
            // Packed 1x1: one input slot, so each MAC runs right
            // after its byte lands in the slot.
            runProgram(arr, prog, 0, 1);
            for (unsigned k = 0; k < rows.rs; ++k) {
                put(rows.inp[0], k);
                runProgram(arr, prog, 1 + k, 2 + k);
            }
            runProgram(arr, prog, np - 1, np);
        } else {
            // Stream the whole window, then the whole program — the
            // original kernel order, so untransformed shapes stay
            // cycle-identical.
            for (unsigned k = 0; k < rows.rs; ++k)
                put(rows.inp[k], k);
            runProgram(arr, prog);
        }
    };

    unsigned passes =
        static_cast<unsigned>(divCeil(m, groupBatches));
    for (unsigned pass = 0; pass < passes; ++pass) {
        unsigned mb0 = pass * groupBatches;
        unsigned mb1 = std::min(m, mb0 + groupBatches);
        // Streaming regime: pin this pass's filter group before its
        // windows run (whole-layer-resident bands skip this forever).
        if (!isResident)
            storeFilters(w, mb0, mb1 - mb0, 0);

        // One array per (filter batch, channel chunk), spread across
        // the cache the way the mapper replicates M's over ways
        // (Figure 9).
        size_t tasks = static_cast<size_t>(mb1 - mb0) * chunks;
        if (chunks > 1)
            part.assign(tasks * win, 0);

        auto member = [&](size_t t) -> sram::Array & {
            return cc.array(base + array_offset + t);
        };
        auto emit = [&](size_t t, unsigned y, unsigned x, uint64_t sum) {
            size_t at = static_cast<size_t>(y) * ow + x;
            if (chunks > 1)
                part[t * win + at] = static_cast<uint32_t>(sum);
            else
                out[(mb0 + t) * win + at] = static_cast<uint32_t>(sum);
        };

        // Array t on its own, the per-array machine itself.
        auto run_alone = [&](size_t t, std::span<uint64_t> vals) {
            sram::Array &arr = member(t);
            unsigned ch = static_cast<unsigned>(t % chunks);
            for (unsigned y = 0; y < oh; ++y) {
                for (unsigned x = 0; x < ow; ++x) {
                    run_window(arr, [&](const bs::VecSlice &slot,
                                        unsigned k) {
                        fill_slot(vals, y, x, k, ch);
                        bs::storeVector(arr, slot, vals);
                    });
                    emit(t, y, x, bs::loadLane(arr, rows.partial, 0));
                }
            }
        };

        // Arrays [t0, t1) in lockstep (§IV-F: the slice broadcasts
        // one stream to all of them): member j of the group array is
        // array t0 + j, every window's stores and programs issue once
        // over the group, and each member is charged the group's
        // cycles — what it would have counted on its own.
        auto run_group = [&](size_t t0, size_t t1,
                             std::span<uint64_t> vals) {
            const unsigned n = static_cast<unsigned>(t1 - t0);
            sram::Array &group = groupArray(arows, cols, n);
            sram::Array &stage = stagingArray(arows, cols);
            for (unsigned j = 0; j < n; ++j)
                group.loadMember(j, member(t0 + j));
            const uint64_t compute0 = group.computeCycles();
            const uint64_t access0 = group.accessCycles();

            // Members of one channel chunk read the same window: the
            // first `distinct` members cover every chunk present.
            const size_t distinct = std::min<size_t>(n, chunks);
            for (unsigned y = 0; y < oh; ++y) {
                for (unsigned x = 0; x < ow; ++x) {
                    run_window(group, [&](const bs::VecSlice &slot,
                                          unsigned k) {
                        for (size_t t = t0; t < t0 + distinct; ++t) {
                            fill_slot(vals, y, x, k,
                                      static_cast<unsigned>(t % chunks));
                            bs::storeVector(stage, slot, vals);
                            for (size_t u = t; u < t1; u += chunks)
                                group.loadMemberRows(
                                    static_cast<unsigned>(u - t0), stage,
                                    slot.base, slot.bits);
                        }
                    });
                    for (unsigned j = 0; j < n; ++j)
                        emit(t0 + j, y, x,
                             bs::loadLane(group, rows.partial,
                                          j * cols));
                }
            }

            const uint64_t compute = group.computeCycles() - compute0;
            const uint64_t access = group.accessCycles() - access0;
            for (unsigned j = 0; j < n; ++j) {
                sram::Array &arr = member(t0 + j);
                group.storeMember(j, arr);
                arr.chargeCycles(compute, access);
            }
        };

        // Contiguous groups of at most kMaxGroupArrays, at least one
        // per worker that can take one: a nested call (a branch or
        // image already fans out over the pool) runs inline, so it
        // gets the fewest, widest groups.
        size_t workers = ex->pool.runsInline()
                             ? 1
                             : std::min<size_t>(tasks, ex->pool.size());
        size_t groups =
            std::max<size_t>(divCeil(tasks, kMaxGroupArrays), workers);
        ex->pool.parallelFor(groups, [&](size_t g) {
            size_t t0 = tasks * g / groups;
            size_t t1 = tasks * (g + 1) / groups;
            // Race detector (debug): this task owns exactly its
            // group's contiguous run of arrays.
            [[maybe_unused]] sram::ownership::ClaimScope own(
                cc.ownershipRegistry(),
                sram::ownership::Range{base + array_offset + t0,
                                       t1 - t0},
                0, "conv window kernel");
            // One streaming buffer per task on the worker's scratch
            // arena, reused for every window.
            common::ArenaScope scratch;
            std::span<uint64_t> vals = scratch.alloc(rows.lanes);

            // A faulted member must see exactly its own per-touch
            // sequence, and a reference-mode member its own kernels:
            // either sends the whole group down the per-array path,
            // as does a geometry whose members would not start on
            // word boundaries.
            bool alone = t1 - t0 == 1 || cols % 64 != 0;
            for (size_t t = t0; t < t1 && !alone; ++t) {
                const sram::Array &arr = member(t);
                alone = arr.faultRecord() != nullptr || arr.referenceMode();
            }
            if (alone) {
                for (size_t t = t0; t < t1; ++t)
                    run_alone(t, vals);
            } else {
                run_group(t0, t1, vals);
            }
        });

        // Merge the chunk partials (the shared-sense-amp reduction
        // across the batch's arrays).
        if (chunks > 1) {
            for (unsigned mi = mb0; mi < mb1; ++mi) {
                for (unsigned ch = 0; ch < chunks; ++ch) {
                    size_t t =
                        (static_cast<size_t>(mi - mb0)) * chunks + ch;
                    for (size_t i = 0; i < win; ++i)
                        out[static_cast<size_t>(mi) * win + i] +=
                            part[t * win + i];
                }
            }
        }
    }
    return out;
}

std::vector<uint32_t>
Executor::conv(const dnn::QTensor &in, const dnn::QWeights &w,
               unsigned stride, bool same_pad, unsigned &out_h,
               unsigned &out_w)
{
    // The legacy per-call entry point: compile and run once. The
    // micro-op sequence (and hence every cycle counter) is identical
    // to the historical fused implementation.
    return prepareConv(w, stride, same_pad).run(in, w, out_h, out_w);
}

std::vector<uint32_t>
Executor::fc(const std::vector<uint8_t> &in, const dnn::QWeights &w)
{
    nc_assert(w.r == 1 && w.s == 1, "fc weights must be 1x1, got %ux%u",
              w.r, w.s);
    nc_assert(w.c == in.size(), "fc: %u weight channels for %zu inputs",
              w.c, in.size());
    dnn::QTensor t(w.c, 1, 1);
    for (unsigned ci = 0; ci < w.c; ++ci)
        t.at(ci, 0, 0) = in[ci];
    unsigned oh, ow;
    return conv(t, w, 1, false, oh, ow);
}

dnn::QTensor
Executor::maxPool(const dnn::QTensor &in, unsigned r, unsigned s,
                  unsigned stride, bool same_pad,
                  uint64_t scratch_array)
{
    unsigned cols = cc.geometry().arrayCols;
    unsigned arows = cc.geometry().arrayRows;
    // Channel ranges beyond one array's bit lines run as extra
    // serial passes over the same slice map (one lane per channel).
    unsigned cchunk = std::min(in.channels(), cols);
    unsigned lanes = static_cast<unsigned>(roundUpPow2(cchunk));
    nc_assert(lanes <= cols, "maxPool: %u lanes exceed %u bit lines "
              "(non-power-of-two array width)", lanes, cols);
    unsigned cpasses = static_cast<unsigned>(
        divCeil(in.channels(), cchunk));

    unsigned oh = dnn::outDim(in.height(), r, stride, same_pad);
    unsigned ow = dnn::outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    // The modeled machine runs every window on one array; the
    // simulator partitions the independent (window, channel-pass)
    // units into contiguous chunks, runs each chunk on a task-private
    // array with the identical slice map, and reduces the
    // (data-independent, hence partition-independent) cycle counts
    // into the modeled array after the join.
    // Race detector (debug): the kernel owns the modeled scratch
    // array (window tasks run on task-private arrays and only their
    // cycle counts merge back here after the join).
    [[maybe_unused]] sram::ownership::ClaimScope own(
        cc.ownershipRegistry(),
        sram::ownership::Range{scratch_array, 1}, 0,
        "maxPool kernel");
    sram::Array &model = cc.array(scratch_array);
    size_t windows = static_cast<size_t>(oh) * ow * cpasses;
    size_t chunks = std::min<size_t>(pool.size(), windows);
    std::vector<std::pair<uint64_t, uint64_t>> charged(
        chunks > 0 ? chunks : 1, {0, 0});

    // The shared carve-up and the full-window fold program the
    // program verifier proves: a window's j-th valid element runs
    // instruction j (the first seeds the running max, the rest fold
    // into it), so a window with v valid elements runs the program's
    // v-instruction prefix.
    const mapping::PoolRowLayout prows =
        mapping::makePoolRowLayout(cc.geometry());
    const std::vector<Instruction> fold =
        verify::maxPoolWindowProgram(prows, r * s);

    dnn::QTensor out(in.channels(), oh, ow, in.params());
    pool.parallelFor(chunks, [&](size_t chunk) {
        sram::Array arr(arows, cols);
        arr.setReferenceMode(model.referenceMode());

        size_t lo = windows * chunk / chunks;
        size_t hi = windows * (chunk + 1) / chunks;
        common::ArenaScope task_scratch;
        std::span<uint64_t> iv = task_scratch.alloc(lanes);
        std::fill(iv.begin(), iv.end(), 0);
        for (size_t wi = lo; wi < hi; ++wi) {
            unsigned y = static_cast<unsigned>(wi / cpasses / ow);
            unsigned x = static_cast<unsigned>(wi / cpasses % ow);
            unsigned c0 = static_cast<unsigned>(wi % cpasses) *
                          cchunk;
            unsigned c1 = std::min(in.channels(), c0 + cchunk);
            size_t j = 0;
            for (unsigned ri = 0; ri < r; ++ri) {
                for (unsigned si = 0; si < s; ++si) {
                    int iy = static_cast<int>(y * stride + ri) -
                             static_cast<int>(ph);
                    int ix = static_cast<int>(x * stride + si) -
                             static_cast<int>(pw);
                    if (iy < 0 || ix < 0 ||
                        iy >= static_cast<int>(in.height()) ||
                        ix >= static_cast<int>(in.width()))
                        continue;
                    std::fill(iv.begin(), iv.end(), 0);
                    for (unsigned ci = c0; ci < c1; ++ci)
                        iv[ci - c0] = in.at(ci, iy, ix);
                    bs::storeVector(arr, prows.cur, iv);
                    runProgram(arr, fold, j, j + 1);
                    ++j;
                }
            }
            for (unsigned ci = c0; ci < c1; ++ci) {
                out.at(ci, y, x) = static_cast<uint8_t>(
                    bs::loadLane(arr, prows.best, ci - c0));
            }
        }
        charged[chunk] = {arr.computeCycles(), arr.accessCycles()};
    });

    for (const auto &[compute, access] : charged)
        model.chargeCycles(compute, access);
    return out;
}

dnn::QTensor
Executor::avgPool(const dnn::QTensor &in, unsigned r, unsigned s,
                  unsigned stride, bool same_pad,
                  uint64_t scratch_array)
{
    const unsigned bits = 8;
    const unsigned acc_bits = 2 * bits;
    unsigned ws = r * s;
    unsigned cols = cc.geometry().arrayCols;
    // Channel ranges beyond one array's bit lines run as extra
    // serial passes over the same slice map (one lane per channel).
    unsigned cchunk = std::min(in.channels(), cols);
    unsigned lanes = static_cast<unsigned>(roundUpPow2(cchunk));
    nc_assert(lanes <= cols, "avgPool: %u lanes exceed %u bit lines "
              "(non-power-of-two array width)", lanes, cols);
    unsigned cpasses = static_cast<unsigned>(
        divCeil(in.channels(), cchunk));
    nc_assert(ws <= 256, "window too large");

    unsigned oh = dnn::outDim(in.height(), r, stride, same_pad);
    unsigned ow = dnn::outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    sram::Array &arr = cc.array(scratch_array);
    bs::RowAllocator rows(cc.geometry().arrayRows);
    bs::VecSlice cur = rows.alloc(bits);
    bs::VecSlice acc = rows.alloc(acc_bits);
    unsigned zrow = rows.zeroRow();

    // SAME padding shrinks edge windows, so their divisors vary; the
    // divide bands are carved out whenever any window count can need
    // the restoring divider, and the divisor streams per window.
    bool pow2_full = isPow2(ws);
    bool need_div = !pow2_full || same_pad;
    unsigned dbits = need_div ? log2Ceil(uint64_t(ws) + 1) : 0;
    bs::VecSlice den, quot, rwork, twork, dwork;
    unsigned den_cur = 0; // divisor currently stored in `den`
    if (need_div) {
        den = rows.alloc(dbits);
        quot = rows.alloc(acc_bits);
        rwork = rows.alloc(acc_bits + dbits);
        twork = rows.alloc(dbits + 1);
        dwork = rows.alloc(dbits + 1);
        if (!pow2_full) {
            bs::storeSplat(arr, den, ws, lanes);
            den_cur = ws;
        }
    }

    common::ArenaScope scratch;
    std::span<uint64_t> iv = scratch.alloc(lanes);
    std::fill(iv.begin(), iv.end(), 0);
    dnn::QTensor out(in.channels(), oh, ow, in.params());
    for (unsigned cp = 0; cp < cpasses; ++cp) {
        unsigned c0 = cp * cchunk;
        unsigned c1 = std::min(in.channels(), c0 + cchunk);
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                unsigned count = 0;
                bs::zero(arr, acc);
                for (unsigned ri = 0; ri < r; ++ri) {
                    for (unsigned si = 0; si < s; ++si) {
                        int iy = static_cast<int>(y * stride + ri) -
                                 static_cast<int>(ph);
                        int ix = static_cast<int>(x * stride + si) -
                                 static_cast<int>(pw);
                        if (iy < 0 || ix < 0 ||
                            iy >= static_cast<int>(in.height()) ||
                            ix >= static_cast<int>(in.width()))
                            continue;
                        std::fill(iv.begin(), iv.end(), 0);
                        for (unsigned ci = c0; ci < c1; ++ci)
                            iv[ci - c0] = in.at(ci, iy, ix);
                        bs::storeVector(arr, cur, iv);
                        bs::add(arr, acc, cur, acc, zrow);
                        ++count;
                    }
                }
                // TF SAME averages exclude padding: divide by the
                // valid count — a shift when it is a power of two,
                // the restoring divider otherwise (divisor streamed
                // when it differs from what the band holds).
                const bs::VecSlice *result = &acc;
                if (isPow2(count)) {
                    bs::shiftDown(arr, acc, log2Ceil(count));
                } else {
                    if (count != den_cur) {
                        bs::storeSplat(arr, den, count, lanes);
                        den_cur = count;
                    }
                    bs::divide(arr, acc, den, quot, rwork, twork,
                               dwork);
                    result = &quot;
                }
                for (unsigned ci = c0; ci < c1; ++ci) {
                    out.at(ci, y, x) = static_cast<uint8_t>(
                        bs::loadLane(arr, *result, ci - c0));
                }
            }
        }
    }
    return out;
}

std::pair<uint64_t, uint64_t>
Executor::minMax(const std::vector<uint64_t> &vals, unsigned bits)
{
    unsigned cols = cc.geometry().arrayCols;
    nc_assert(!vals.empty() && vals.size() <= cols,
              "minMax over %zu values", vals.size());
    unsigned lanes =
        static_cast<unsigned>(roundUpPow2(vals.size()));

    sram::Array &arr = cc.array(kHelperScratch);
    bs::RowAllocator rows(cc.geometry().arrayRows);
    bs::VecSlice mx = rows.alloc(bits);
    bs::VecSlice mn = rows.alloc(bits);
    bs::VecSlice mv = rows.alloc(bits);
    bs::VecSlice cmp = rows.alloc(bits);

    // Max tree pads with 0, min tree pads with all-ones.
    std::vector<uint64_t> vmax(lanes, 0);
    std::vector<uint64_t> vmin(lanes, lowMask(bits));
    for (size_t i = 0; i < vals.size(); ++i)
        vmax[i] = vmin[i] = vals[i];
    bs::storeVector(arr, mx, vmax);
    bs::reduceMax(arr, mx, lanes, mv, cmp, /*take_min=*/false);
    bs::storeVector(arr, mn, vmin);
    bs::reduceMax(arr, mn, lanes, mv, cmp, /*take_min=*/true);

    return {bs::loadLane(arr, mn, 0), bs::loadLane(arr, mx, 0)};
}

std::vector<uint8_t>
Executor::requantize(const std::vector<uint32_t> &acc, uint8_t mult,
                     unsigned shift, uint64_t scratch_array)
{
    const unsigned vbits = 32;
    const unsigned gbits = 8;
    unsigned cols = cc.geometry().arrayCols;

    sram::Array &arr = cc.array(scratch_array);
    bs::RowAllocator rows(cc.geometry().arrayRows);
    bs::VecSlice v = rows.alloc(vbits);
    bs::VecSlice g = rows.alloc(gbits);
    bs::VecSlice prod = rows.alloc(vbits + gbits);

    common::ArenaScope scratch;
    std::span<uint64_t> vv = scratch.alloc(cols);
    std::vector<uint8_t> out(acc.size());
    for (size_t base = 0; base < acc.size(); base += cols) {
        size_t n = std::min<size_t>(cols, acc.size() - base);
        for (size_t i = 0; i < n; ++i)
            vv[i] = acc[base + i];
        bs::storeVector(arr, v, vv.first(n));
        bs::storeSplat(arr, g, mult, n);
        bs::multiply(arr, v, g, prod);
        bs::shiftDown(arr, prod, shift);
        // In-array clamp: lanes whose value exceeds 8 bits saturate
        // to 255 (the §IV-D clamp, done with a tag-OR overflow fold).
        bs::saturate(arr, prod, 8);
        for (size_t i = 0; i < n; ++i) {
            out[base + i] = static_cast<uint8_t>(bs::loadLane(
                arr, prod.slice(0, 8), static_cast<unsigned>(i)));
        }
    }
    return out;
}

Executor::PreparedEltwise
Executor::prepareEltwise(uint8_t mult, unsigned shift,
                         uint64_t scratch_array)
{
    PreparedEltwise p;
    p.ex = this;
    p.mult = mult;
    p.sh = shift;
    p.scratch = scratch_array;
    cc.array(scratch_array); // materialize up front

    // Row carve-up and merge program, fixed once: the shared
    // mapping-layer map (two operand bytes, the 9-bit sum, the
    // broadcast multiplier, the 17-bit product shifted and saturated
    // in place) and sat8(((a + b) * mult) >> shift) over it — widen
    // add, multiply by the calibrated 8-bit scalar, truncating shift,
    // in-array clamp (the §IV-D sequence, one lane per element).
    p.rows = mapping::makeEltwiseRowLayout(cc.geometry());
    p.prog = verify::eltwiseMergeProgram(p.rows, shift);
    return p;
}

std::vector<uint8_t>
Executor::PreparedEltwise::run(const std::vector<uint8_t> &a,
                               const std::vector<uint8_t> &b,
                               uint64_t array_offset)
{
    const unsigned bits = 8;
    cache::ComputeCache &cc = ex->cc;
    nc_assert(a.size() == b.size(),
              "eltwise operands differ: %zu vs %zu elements", a.size(),
              b.size());

    unsigned cols = cc.geometry().arrayCols;
    // Race detector (debug): the merge owns its branch's scratch
    // array, displaced into the running image slot.
    [[maybe_unused]] sram::ownership::ClaimScope own(
        cc.ownershipRegistry(),
        sram::ownership::Range{scratch + array_offset, 1}, 0,
        "eltwise merge kernel");
    sram::Array &arr = cc.array(scratch + array_offset);

    // The multiplier is one broadcast scalar per run (other layers
    // may have scribbled on the scratch array in between).
    bs::storeSplat(arr, rows.gain, mult, cols);

    common::ArenaScope scratch;
    std::span<uint64_t> iv = scratch.alloc(cols);
    std::vector<uint8_t> out(a.size());
    for (size_t base = 0; base < a.size(); base += cols) {
        size_t n = std::min<size_t>(cols, a.size() - base);
        for (size_t i = 0; i < n; ++i)
            iv[i] = a[base + i];
        bs::storeVector(arr, rows.va, iv.first(n));
        for (size_t i = 0; i < n; ++i)
            iv[i] = b[base + i];
        bs::storeVector(arr, rows.vb, iv.first(n));
        runProgram(arr, prog);
        for (size_t i = 0; i < n; ++i) {
            out[base + i] = static_cast<uint8_t>(bs::loadLane(
                arr, rows.prod.slice(0, bits),
                static_cast<unsigned>(i)));
        }
    }
    return out;
}

std::vector<uint8_t>
Executor::eltwiseAdd(const std::vector<uint8_t> &a,
                     const std::vector<uint8_t> &b, uint8_t mult,
                     unsigned shift)
{
    return prepareEltwise(mult, shift, kHelperScratch).run(a, b);
}

std::vector<uint8_t>
Executor::relu(const std::vector<uint8_t> &vals)
{
    const unsigned bits = 8;
    unsigned cols = cc.geometry().arrayCols;
    nc_assert(vals.size() <= cols, "relu: %zu values exceed %u lanes",
              vals.size(), cols);

    sram::Array &arr = cc.array(kHelperScratch);
    bs::RowAllocator rows(cc.geometry().arrayRows);
    bs::VecSlice v = rows.alloc(bits);

    std::vector<uint64_t> iv(vals.begin(), vals.end());
    bs::storeVector(arr, v, iv);
    bs::relu(arr, v);

    std::vector<uint8_t> out(vals.size());
    for (size_t i = 0; i < vals.size(); ++i)
        out[i] = static_cast<uint8_t>(
            bs::loadLane(arr, v, static_cast<unsigned>(i)));
    return out;
}

} // namespace nc::core

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
 * @p cols, task-private and untagged.
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
 * Stage one slot of @p in into @p vals, zeroed first: each run reads
 * its chunk-relative channels (c0 + ch, clipped to the chunk's @p
 * channels) at (y0 + dy, x0 + dx) into its lanes, and a run whose
 * position falls in the zero padding leaves its lanes zero. The one
 * place a kernel reads its input tensor. Returns whether any run's
 * position lay inside @p in.
 */
bool
gather(std::span<uint64_t> vals, const dnn::QTensor &in,
       std::span<const mapping::LaneRun> runs, int y0, int x0,
       unsigned c0, unsigned channels)
{
    std::fill(vals.begin(), vals.end(), 0);
    bool inside = false;
    for (const mapping::LaneRun &run : runs) {
        const int iy = y0 + static_cast<int>(run.dy);
        const int ix = x0 + static_cast<int>(run.dx);
        if (iy < 0 || ix < 0 || iy >= static_cast<int>(in.height()) ||
            ix >= static_cast<int>(in.width()))
            continue;
        inside = true;
        const unsigned n = run.lanesIn(channels);
        for (unsigned i = 0; i < n; ++i) {
            const unsigned lane = run.lane0 + i * run.laneStride;
            nc_dassert(lane < vals.size(),
                       "gather: lane %u past the slot's %zu lanes", lane,
                       vals.size());
            vals[lane] = in.at(c0 + run.ch0 + i * run.chStride,
                               static_cast<unsigned>(iy),
                               static_cast<unsigned>(ix));
        }
    }
    return inside;
}

/**
 * The one pool loop, shared by maxPool and avgPool: every window runs
 * in order on the scratch array the caller names, as requantization
 * and the eltwise merge do. Channels split into passes of at most one
 * array's bit lines (one lane per channel, extra channels run as
 * serial passes over the same slice map), and the r x s window is one
 * unit-stride run per element. The walk holds the kernel's debug
 * claim on its scratch array for its whole lifetime.
 */
struct PoolWalk
{
    PoolWalk(cache::ComputeCache &cc, uint64_t scratch,
             const char *label, const dnn::QTensor &in_, unsigned r,
             unsigned s, unsigned stride_, bool same_pad)
        : own(cc.ownershipRegistry(),
              sram::ownership::Range{scratch, 1}, 0, label),
          arr(cc.array(scratch)), in(in_), stride(stride_),
          cchunk(std::min(in_.channels(), cc.geometry().arrayCols)),
          lanes(static_cast<unsigned>(roundUpPow2(cchunk))),
          oh(dnn::outDim(in_.height(), r, stride_, same_pad)),
          ow(dnn::outDim(in_.width(), s, stride_, same_pad)),
          ph(static_cast<int>(
              padBefore(in_.height(), r, stride_, same_pad))),
          pw(static_cast<int>(
              padBefore(in_.width(), s, stride_, same_pad)))
    {
        nc_assert(lanes <= arr.cols(), "pool: %u lanes exceed %u bit "
                  "lines (non-power-of-two array width)", lanes,
                  arr.cols());
        for (unsigned dy = 0; dy < r; ++dy)
            for (unsigned dx = 0; dx < s; ++dx)
                elems.push_back({dy, dx, 0, 1, 0, 1, cchunk});
    }

    /**
     * Run every (channel pass, output row, output column) window.
     * @p body(each) computes one window and returns the slice holding
     * its result; each(f) stages the window's in-bounds elements into
     * @p cur in row-major order and calls f after each (padding
     * elements are skipped, not staged as zeros). The result slice's
     * lanes are read out into the pooled tensor.
     */
    template <class Body>
    dnn::QTensor
    run(const bs::VecSlice &cur, Body &&body) const
    {
        common::ArenaScope scratch;
        std::span<uint64_t> iv = scratch.alloc(lanes);
        dnn::QTensor out(in.channels(), oh, ow, in.params());
        for (unsigned c0 = 0; c0 < in.channels(); c0 += cchunk) {
            const unsigned n = std::min(in.channels(), c0 + cchunk) - c0;
            for (unsigned y = 0; y < oh; ++y) {
                for (unsigned x = 0; x < ow; ++x) {
                    const int y0 = static_cast<int>(y * stride) - ph;
                    const int x0 = static_cast<int>(x * stride) - pw;
                    auto each = [&](auto &&f) {
                        for (const mapping::LaneRun &e : elems) {
                            if (gather(iv, in, {&e, 1}, y0, x0, c0, n)) {
                                bs::storeVector(arr, cur, iv);
                                f();
                            }
                        }
                    };
                    const bs::VecSlice res = body(each);
                    for (unsigned i = 0; i < n; ++i)
                        out.at(c0 + i, y, x) = static_cast<uint8_t>(
                            bs::loadLane(arr, res, i));
                }
            }
        }
        return out;
    }

    [[maybe_unused]] sram::ownership::ClaimScope own;
    sram::Array &arr;
    const dnn::QTensor &in;
    unsigned stride, cchunk, lanes, oh, ow;
    int ph, pw;
    std::vector<mapping::LaneRun> elems;
};

} // namespace

Executor::PreparedConv
Executor::prepareConv(const dnn::QWeights &w,
                      const mapping::FunctionalConvPlan &plan,
                      unsigned stride, bool same_pad,
                      uint64_t base_array, uint64_t band_arrays,
                      bool resident)
{
    nc_assert(plan.fits &&
                  uint64_t(plan.chunks) * plan.chunkChannels >= w.c,
              "conv (C=%u RxS=%ux%u): the plan given does not map it "
              "onto a %ux%u array", w.c, w.r, w.s,
              cc.geometry().arrayRows, cc.geometry().arrayCols);
    PreparedConv p;
    p.ex = this;
    p.m = w.m;
    p.c = w.c;
    p.r = w.r;
    p.s = w.s;
    p.stride = stride;
    p.samePad = same_pad;
    p.base = base_array;
    p.fplan = plan;
    // The Figure-10 slice map, the lane table over it, and the
    // per-window program: every array gets the identical layout and
    // runs the identical stream, so all three are derived once here.
    p.rows = mapping::makeConvRowLayout(cc.geometry(), plan);
    p.table = mapping::makeConvLaneTable(plan, w.r, w.s);
    p.prog = verify::convWindowProgram(p.rows);

    uint64_t need = plan.totalArrays(w.m);
    p.band = band_arrays == 0 ? need : std::min(band_arrays, need);
    nc_assert(p.band >= plan.chunks,
              "band of %llu arrays cannot hold one filter batch "
              "(%u chunks)",
              static_cast<unsigned long long>(p.band), plan.chunks);
    p.groupBatches = static_cast<unsigned>(p.band / plan.chunks);
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

    ex->pool.parallelFor(static_cast<size_t>(count) * chunks,
                         [&](size_t t) {
        // Race detector (debug): each store task owns its one array.
        [[maybe_unused]] sram::ownership::ClaimScope own(
            cc.ownershipRegistry(),
            sram::ownership::Range{base + array_offset + t, 1}, 0,
            "conv filter store");
        unsigned mi = first_batch + static_cast<unsigned>(t / chunks);
        unsigned c0 = static_cast<unsigned>(t % chunks) *
                      fplan.chunkChannels;
        unsigned nch = std::min(c, c0 + fplan.chunkChannels) - c0;
        sram::Array &arr = cc.array(base + array_offset + t);

        // Streaming buffer on this worker's scratch arena: filters
        // repin every pass in the streaming regime, so a heap
        // allocation here would recur per (batch, chunk) task.
        common::ArenaScope scratch;
        std::span<uint64_t> vals = scratch.alloc(rows.lanes);
        for (unsigned k = 0; k < rows.rs; ++k) {
            std::fill(vals.begin(), vals.end(), 0);
            for (const mapping::LaneRun &run : table.slots[k]) {
                const unsigned n = run.lanesIn(nch);
                for (unsigned i = 0; i < n; ++i)
                    vals[run.lane0 + i * run.laneStride] =
                        w.at(mi, c0 + run.ch0 + i * run.chStride,
                             run.dy, run.dx);
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
    const int ph = static_cast<int>(padBefore(in.height(), r, stride,
                                              samePad));
    const int pw = static_cast<int>(padBefore(in.width(), s, stride,
                                              samePad));
    const unsigned oh = out_h, ow = out_w;
    const unsigned chunks = fplan.chunks;
    const size_t win = static_cast<size_t>(oh) * ow;
    const unsigned arows = cc.geometry().arrayRows;
    const unsigned cols = cc.geometry().arrayCols;

    std::vector<uint32_t> out(static_cast<size_t>(m) * win, 0);
    // Per-chunk partial accumulators of the current pass; the chunk
    // merge below models the cross-array sense-amp reduction.
    std::vector<uint32_t> part;

    // One output window on `arr`: put(slot, k) lands MAC slot k's
    // inputs in the row slice `slot`, and the window program runs
    // around it.
    const size_t np = prog.size();
    const bool one_slot = rows.inp.size() < rows.rs;
    auto run_window = [&](sram::Array &arr, auto &&put) {
        if (one_slot) {
            // Packed 1x1: every MAC slot reads the one input slot, so
            // each MAC runs right after its byte lands there.
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
        // Array t's window sums: its chunk partials, or straight into
        // its filter batch's outputs when there is one chunk.
        uint32_t *sums =
            chunks > 1 ? part.data() : out.data() + size_t(mb0) * win;

        auto member = [&](size_t t) -> sram::Array & {
            return cc.array(base + array_offset + t);
        };

        // Arrays [t0, t1) in lockstep (§IV-F: the slice broadcasts
        // one stream to all of them): member j of the group array is
        // array t0 + j, every window's stores and programs issue once
        // over the group, and each member is charged the group's
        // cycles — what it would have counted on its own. A group of
        // one runs on its array directly: the per-array machine.
        auto run_group = [&](size_t t0, size_t t1,
                             std::span<uint64_t> vals) {
            const unsigned n = static_cast<unsigned>(t1 - t0);
            const bool direct = n == 1;
            sram::Array &group =
                direct ? member(t0) : groupArray(arows, cols, n);
            if (!direct)
                for (unsigned j = 0; j < n; ++j)
                    group.loadMember(j, member(t0 + j));
            const uint64_t compute0 = group.computeCycles();
            const uint64_t access0 = group.accessCycles();
            nc_dassert(n <= kMaxGroupArrays, "group of %u arrays", n);
            std::array<uint64_t, kMaxGroupArrays> partials;
            const std::span<uint64_t> psum(partials.data(), n);

            // Members of one channel chunk read the same window: the
            // first `distinct` members cover every chunk present, and
            // each window slot is gathered once per chunk and stored
            // into all of that chunk's members at once.
            const size_t distinct = std::min<size_t>(n, chunks);
            for (unsigned y = 0; y < oh; ++y) {
                for (unsigned x = 0; x < ow; ++x) {
                    const int y0 = static_cast<int>(y * stride) - ph;
                    const int x0 = static_cast<int>(x * stride) - pw;
                    run_window(group, [&](const bs::VecSlice &slot,
                                          unsigned k) {
                        for (size_t t = t0; t < t0 + distinct; ++t) {
                            unsigned c0 =
                                static_cast<unsigned>(t % chunks) *
                                fplan.chunkChannels;
                            gather(vals, in, table.slots[k], y0, x0, c0,
                                   std::min(c, c0 + fplan.chunkChannels) -
                                       c0);
                            if (direct)
                                bs::storeVector(group, slot, vals);
                            else
                                bs::storeMembers(
                                    group, slot, vals,
                                    static_cast<unsigned>(t - t0),
                                    chunks);
                        }
                    });
                    bs::loadMemberLanes(group, rows.partial, 0, psum);
                    for (unsigned j = 0; j < n; ++j)
                        sums[(t0 + j) * win + size_t(y) * ow + x] =
                            static_cast<uint32_t>(psum[j]);
                }
            }

            if (direct)
                return;
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
            // either sends the whole group down the per-array path
            // (groups of one), as does a geometry whose members would
            // not start on word boundaries.
            bool alone = cols % 64 != 0;
            for (size_t t = t0; t < t1 && !alone; ++t) {
                const sram::Array &arr = member(t);
                alone = arr.faultRecord() != nullptr || arr.referenceMode();
            }
            if (alone) {
                for (size_t t = t0; t < t1; ++t)
                    run_group(t, t + 1, vals);
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
    // The per-call entry point: plan, prepare and run once.
    const dnn::Op op = dnn::conv("conv", in.height(), in.width(), w.c,
                                 w.r, w.s, w.m, stride, same_pad);
    return prepareConv(w, mapping::planFunctionalConv(op.conv,
                                                      cc.geometry()),
                       stride, same_pad)
        .run(in, w, out_h, out_w);
}

dnn::QTensor
Executor::maxPool(const dnn::QTensor &in, unsigned r, unsigned s,
                  unsigned stride, bool same_pad,
                  uint64_t scratch_array)
{
    // The full-window fold program the program verifier proves: a
    // window's j-th valid element runs instruction j (the first seeds
    // the running max, the rest fold into it), so a window with v
    // valid elements runs the program's v-instruction prefix.
    const mapping::PoolRowLayout prows =
        mapping::makePoolRowLayout(cc.geometry());
    const std::vector<Instruction> fold =
        verify::maxPoolWindowProgram(prows, r * s);

    const PoolWalk walk(cc, scratch_array, "maxPool kernel", in, r, s,
                        stride, same_pad);
    return walk.run(prows.cur, [&](auto &&each) {
        size_t j = 0;
        each([&] {
            runProgram(walk.arr, fold, j, j + 1);
            ++j;
        });
        return prows.best;
    });
}

dnn::QTensor
Executor::avgPool(const dnn::QTensor &in, unsigned r, unsigned s,
                  unsigned stride, bool same_pad,
                  uint64_t scratch_array)
{
    const unsigned bits = 8;
    const unsigned acc_bits = 2 * bits;
    unsigned ws = r * s;
    nc_assert(ws <= 256, "window too large");
    const PoolWalk walk(cc, scratch_array, "avgPool kernel", in, r, s,
                        stride, same_pad);
    const unsigned lanes = walk.lanes;

    sram::Array &arr = walk.arr;
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

    return walk.run(cur, [&](auto &&each) {
        unsigned count = 0;
        bs::zero(arr, acc);
        each([&] {
            bs::add(arr, acc, cur, acc, zrow);
            ++count;
        });
        // TF SAME averages exclude padding: divide by the valid
        // count — a shift when it is a power of two, the restoring
        // divider otherwise (divisor streamed when it differs from
        // what the band holds).
        if (isPow2(count)) {
            bs::shiftDown(arr, acc, log2Ceil(count));
            return acc;
        }
        if (count != den_cur) {
            bs::storeSplat(arr, den, count, lanes);
            den_cur = count;
        }
        bs::divide(arr, acc, den, quot, rwork, twork, dwork);
        return quot;
    });
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

} // namespace nc::core

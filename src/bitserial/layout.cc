#include "bitserial/layout.hh"

#include <algorithm>
#include <cstring>

#include "common/arena.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "sram/kernels.hh"

namespace nc::bitserial
{

RowAllocator::RowAllocator(unsigned total_rows)
    : nrows(total_rows), top(total_rows)
{
    nc_assert(total_rows > 0, "allocator over empty array");
}

VecSlice
RowAllocator::alloc(unsigned bits)
{
    nc_assert(bits > 0, "zero-width slice");
    if (next + bits > top) {
        nc_fatal("row allocator exhausted: want %u rows, %u free",
                 bits, top - next);
    }
    VecSlice s{next, bits};
    next += bits;
    return s;
}

unsigned
RowAllocator::zeroRow()
{
    if (zrow == kNoRow) {
        nc_assert(top > next, "no room for zero row");
        zrow = --top;
    }
    return zrow;
}

void
RowAllocator::reset()
{
    next = 0;
    top = nrows;
    zrow = kNoRow;
}

void
storeVector(sram::Array &arr, const VecSlice &slice,
            std::span<const uint64_t> values)
{
    nc_assert(values.size() <= arr.cols(),
              "%zu values exceed %u lanes", values.size(), arr.cols());
    nc_assert(slice.bits <= 64, "slice wider than 64 bits");

    if (arr.referenceMode()) {
        // Bit-by-bit scalar path (differential oracle / bench baseline).
        for (unsigned lane = 0; lane < arr.cols(); ++lane) {
            uint64_t v = lane < values.size() ? values[lane] : 0;
            for (unsigned b = 0; b < slice.bits; ++b)
                arr.poke(slice.row(b), lane, bit(v, b));
        }
        return;
    }

    const size_t nblocks = (arr.cols() + 63) / 64;
    const auto &kt = sram::kern::active();
    common::ArenaScope scratch;

    // Narrow elements (the 8-bit-quantized common case): skip the
    // transpose entirely and peel bit planes straight out of the
    // values, one word of 64 lanes per pack step.
    if (slice.bits <= 8) {
        std::span<uint64_t> planes =
            scratch.alloc(size_t(slice.bits) * nblocks);
        kt.packPlanes(values.data(), values.size(), slice.bits,
                      planes.data(), nblocks);
        for (unsigned b = 0; b < slice.bits; ++b) {
            sram::BitRow &row = arr.rowMut(slice.row(b));
            for (size_t blk = 0; blk < nblocks; ++blk)
                row.setWord(blk, planes[size_t(b) * nblocks + blk]);
        }
        return;
    }

    // Wide elements: one batched 64x64 bit-matrix transpose over all
    // blocks — word [blk*64 + i] holds lane i's value going in and
    // bit-plane i's word coming out — then row-major write-back, so
    // every array word (and every row's fault hook) is touched once.
    std::span<uint64_t> blocks = scratch.alloc(nblocks * 64);
    if (!values.empty())
        std::memcpy(blocks.data(), values.data(),
                    values.size() * sizeof(uint64_t));
    std::memset(blocks.data() + values.size(), 0,
                (nblocks * 64 - values.size()) * sizeof(uint64_t));
    kt.transposeBlocks(blocks.data(), nblocks);
    for (unsigned b = 0; b < slice.bits; ++b) {
        sram::BitRow &row = arr.rowMut(slice.row(b));
        for (size_t blk = 0; blk < nblocks; ++blk)
            row.setWord(blk, blocks[blk * 64 + b]);
    }
}

void
storeSplat(sram::Array &arr, const VecSlice &slice, uint64_t value,
           size_t count)
{
    nc_assert(count <= arr.cols(), "%zu values exceed %u lanes",
              count, arr.cols());
    nc_assert(slice.bits <= 64, "slice wider than 64 bits");

    if (arr.referenceMode()) {
        for (unsigned lane = 0; lane < arr.cols(); ++lane) {
            uint64_t v = lane < count ? value : 0;
            for (unsigned b = 0; b < slice.bits; ++b)
                arr.poke(slice.row(b), lane, bit(v, b));
        }
        return;
    }

    // A broadcast needs no transpose: bit plane b is a run of
    // `count` ones (or zeros) followed by zeros.
    const size_t nblocks = (arr.cols() + 63) / 64;
    for (unsigned b = 0; b < slice.bits; ++b) {
        sram::BitRow &row = arr.rowMut(slice.row(b));
        const bool set = bit(value, b);
        for (size_t blk = 0; blk < nblocks; ++blk) {
            uint64_t w = 0;
            if (set && count > blk * 64) {
                size_t n = count - blk * 64;
                w = n >= 64 ? ~uint64_t(0) : lowMask(unsigned(n));
            }
            row.setWord(blk, w);
        }
    }
}

std::vector<uint64_t>
loadVector(const sram::Array &arr, const VecSlice &slice)
{
    std::vector<uint64_t> out(arr.cols(), 0);
    nc_assert(slice.bits <= 64, "slice wider than 64 bits");

    if (arr.referenceMode()) {
        for (unsigned lane = 0; lane < arr.cols(); ++lane)
            out[lane] = loadLane(arr, slice, lane);
        return out;
    }

    // Row-major gather (one fault-hook touch per row), one batched
    // transpose over all blocks, then the lanes fall out contiguous.
    const size_t nblocks = (arr.cols() + 63) / 64;
    common::ArenaScope scratch;
    std::span<uint64_t> blocks = scratch.alloc(nblocks * 64);
    std::memset(blocks.data(), 0, nblocks * 64 * sizeof(uint64_t));
    for (unsigned b = 0; b < slice.bits && b < 64; ++b) {
        const sram::BitRow &row = arr.rowRef(slice.row(b));
        for (size_t blk = 0; blk < nblocks; ++blk)
            blocks[blk * 64 + b] = row.word(blk);
    }
    sram::kern::active().transposeBlocks(blocks.data(), nblocks);
    std::memcpy(out.data(), blocks.data(),
                arr.cols() * sizeof(uint64_t));
    return out;
}

void
storeMembers(sram::Array &arr, const VecSlice &slice,
             std::span<const uint64_t> values, unsigned first,
             unsigned stride)
{
    nc_assert(values.size() <= arr.memberCols(),
              "%zu values exceed %u-lane members", values.size(),
              arr.memberCols());
    nc_assert(slice.bits <= 8, "member stores take elements of <= 8 "
              "bits, not %u", slice.bits);
    const size_t live = (values.size() + 63) / 64;
    common::ArenaScope scratch;
    std::span<uint64_t> planes = scratch.alloc(size_t(slice.bits) * live);
    sram::kern::active().packPlanes(values.data(), values.size(),
                                    slice.bits, planes.data(), live);
    arr.writeMemberRows(first, stride, slice.base, slice.bits, planes);
}

uint64_t
loadLane(const sram::Array &arr, const VecSlice &slice, unsigned lane)
{
    nc_assert(slice.bits <= 64, "lane wider than 64 bits");
    // Word-level gather: one shift/mask per bit plane instead of a
    // peek() call chain per bit.
    const size_t wi = lane / 64;
    const unsigned sh = lane % 64;
    uint64_t v = 0;
    for (unsigned b = 0; b < slice.bits; ++b)
        v |= ((arr.rowRef(slice.row(b)).word(wi) >> sh) & 1u) << b;
    return v;
}

void
loadMemberLanes(const sram::Array &arr, const VecSlice &slice,
                unsigned lane, std::span<uint64_t> out)
{
    nc_assert(slice.bits <= 64, "lane wider than 64 bits");
    nc_assert(lane < arr.memberCols() && out.size() == arr.members(),
              "lane %u of %zu outputs over %u members of %u lanes",
              lane, out.size(), arr.members(), arr.memberCols());
    // Members past the first start on word boundaries, memberCols()
    // / 64 words apart, so lane `lane` of each sits at one shift.
    const size_t mw = arr.memberCols() / 64;
    const unsigned sh = lane % 64;
    std::fill(out.begin(), out.end(), 0);
    for (unsigned b = 0; b < slice.bits; ++b) {
        const uint64_t *w =
            arr.rowRef(slice.row(b)).wordData() + lane / 64;
        for (size_t j = 0; j < out.size(); ++j)
            out[j] |= ((w[j * mw] >> sh) & 1u) << b;
    }
}

} // namespace nc::bitserial

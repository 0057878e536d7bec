#include "sram/array.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"
#include "sram/faults.hh"
#include "sram/kernels.hh"
#include "sram/ownership.hh"

namespace nc::sram
{

Array::Array(unsigned rows_, unsigned cols_, unsigned member_cols)
    : nrows(rows_), ncols(cols_),
      mcols(member_cols != 0 ? member_cols : cols_),
      nwords((cols_ + 63) / 64),
      tmask(cols_ % 64 ? (uint64_t(1) << (cols_ % 64)) - 1
                       : ~uint64_t(0)),
      cells(rows_, BitRow(cols_)), carryLatch(cols_), tagLatch(cols_)
{
    nc_assert(rows_ > 0 && cols_ > 0, "degenerate array %ux%u",
              rows_, cols_);
    nc_assert(mcols == ncols || (mcols % 64 == 0 && ncols % mcols == 0),
              "member width %u does not split %u lanes into whole "
              "64-lane words", mcols, ncols);
}

size_t
Array::memberWord(unsigned j, const Array &other) const
{
    nc_assert(j < members(), "member %u of %u", j, members());
    nc_assert(other.nrows == nrows && other.ncols == mcols,
              "member array is %ux%u, this group's members are %ux%u",
              other.nrows, other.ncols, nrows, mcols);
    return size_t(j) * mcols / 64;
}

void
Array::loadMemberRows(unsigned j, const Array &src, unsigned row0,
                      unsigned count)
{
    const size_t w0 = memberWord(j, src);
    nc_assert(row0 <= nrows && count <= nrows - row0,
              "rows [%u,%u) out of %u", row0, row0 + count, nrows);
    for (unsigned r = row0; r < row0 + count; ++r)
        std::copy_n(src.rowRef(r).wordData(), src.nwords,
                    rowMut(r).wordData() + w0);
}

void
Array::loadMember(unsigned j, const Array &src)
{
    loadMemberRows(j, src, 0, nrows);
    const size_t w0 = memberWord(j, src);
    src.checkOwner();
    checkOwner();
    std::copy_n(src.carryLatch.wordData(), src.nwords,
                carryLatch.wordData() + w0);
    std::copy_n(src.tagLatch.wordData(), src.nwords,
                tagLatch.wordData() + w0);
}

void
Array::storeMember(unsigned j, Array &dst) const
{
    const size_t w0 = memberWord(j, dst);
    for (unsigned r = 0; r < nrows; ++r)
        std::copy_n(rowRef(r).wordData() + w0, dst.nwords,
                    dst.rowMut(r).wordData());
    checkOwner();
    dst.checkOwner();
    std::copy_n(carryLatch.wordData() + w0, dst.nwords,
                dst.carryLatch.wordData());
    std::copy_n(tagLatch.wordData() + w0, dst.nwords,
                dst.tagLatch.wordData());
}

void
Array::touchRows(unsigned ra, unsigned rb, unsigned dst) const
{
    nc_dassert(ra < nrows, "row %u out of %u", ra, nrows);
    nc_dassert(rb == kNoTouch || rb < nrows, "row %u out of %u", rb,
               nrows);
    nc_dassert(dst == kNoTouch || dst < nrows, "row %u out of %u",
               dst, nrows);
    checkOwner();
    if (flt) {
        applyFaults(ra);
        if (rb != kNoTouch)
            applyFaults(rb);
        if (dst != kNoTouch)
            applyFaults(dst);
    }
}

void
Array::checkRow(unsigned r) const
{
    nc_dassert(r < nrows, "row %u out of %u", r, nrows);
    checkOwner();
    // The fault-injection hook: the whole cost of an unfaulted array
    // is this one pointer test (live in release builds, unlike the
    // ownership gate above — see sram/faults.hh).
    if (flt)
        applyFaults(r);
    (void)r;
}

void
Array::applyFaults(unsigned r) const
{
    // checkRow is const because reads funnel through it, but fault
    // application mutates the touched cells by design (stuck clamps,
    // scrambles, flips are array state, not observer state).
    auto *self = const_cast<Array *>(this);
    self->flt->onTouch(self->cells[r], r);
}

void
Array::checkOwner() const
{
#ifndef NDEBUG
    if (ownReg)
        ownReg->checkAccess(ownIdx);
#endif
}

void
Array::setOwnership(ownership::Registry *reg, uint64_t flat_index)
{
#ifndef NDEBUG
    ownReg = reg;
    ownIdx = flat_index;
#else
    (void)reg;
    (void)flat_index;
#endif
}

BitRow
Array::readRow(unsigned r)
{
    checkRow(r);
    ++nAccessCycles;
    return cells[r];
}

void
Array::writeRow(unsigned r, const BitRow &row)
{
    checkRow(r);
    nc_assert(row.width() == ncols, "row width %u != %u",
              row.width(), ncols);
    ++nAccessCycles;
    cells[r] = row;
}

const BitRow &
Array::rowRef(unsigned r) const
{
    checkRow(r);
    return cells[r];
}

BitRow &
Array::rowMut(unsigned r)
{
    checkRow(r);
    return cells[r];
}

bool
Array::peek(unsigned r, unsigned lane) const
{
    checkRow(r);
    return cells[r].get(lane);
}

void
Array::poke(unsigned r, unsigned lane, bool v)
{
    checkRow(r);
    cells[r].set(lane, v);
}

Array::Sensed
Array::sense(unsigned ra, unsigned rb) const
{
    checkRow(ra);
    checkRow(rb);
    nc_assert(ra != rb, "dual activation of the same word line %u", ra);
    const BitRow &a = cells[ra];
    const BitRow &b = cells[rb];
    return Sensed{a & b, ~a & ~b};
}

void
Array::writeBack(unsigned dst, const BitRow &value, bool pred)
{
    checkRow(dst);
    if (pred)
        cells[dst].mergeFrom(value, tagLatch);
    else
        cells[dst] = value;
}

void
Array::fused2(unsigned ra, unsigned rb, unsigned dst, bool pred,
              kern::Logic2 op)
{
    // Hot shape: everything that cannot happen on a resolved,
    // unfaulted array (first-op dispatch, fault re-application, the
    // same-row programming error) funnels through one predicted-
    // not-taken branch into the out-of-line slow body, and the
    // kernel is reached by a frameless sibling call — the per-op
    // wrapper cost is otherwise comparable to the pass itself on
    // the default 4-word geometry.
    const kern::Table *t = kern::g_active.load(std::memory_order_acquire);
    if (!t || flt || ra == rb) [[unlikely]]
        return fused2Slow(ra, rb, dst, pred, op);
    nc_dassert(ra < nrows && rb < nrows && dst < nrows,
               "row out of %u", nrows);
    checkOwner();
    if (pred)
        t->logic2Pred(op, cells[ra].wordData(), cells[rb].wordData(),
                      cells[dst].wordData(), tagLatch.wordData(),
                      nwords, tmask);
    else
        t->logic2(op, cells[ra].wordData(), cells[rb].wordData(),
                  cells[dst].wordData(), nwords, tmask);
}

[[gnu::noinline]] void
Array::fused2Slow(unsigned ra, unsigned rb, unsigned dst, bool pred,
                  kern::Logic2 op)
{
    touchRows(ra, rb, dst);
    nc_assert(ra != rb, "dual activation of the same word line %u", ra);
    const kern::Table &t = kern::active();
    if (pred)
        t.logic2Pred(op, cells[ra].wordData(), cells[rb].wordData(),
                     cells[dst].wordData(), tagLatch.wordData(),
                     nwords, tmask);
    else
        t.logic2(op, cells[ra].wordData(), cells[rb].wordData(),
                 cells[dst].wordData(), nwords, tmask);
}

void
Array::fused1(unsigned src, unsigned dst, bool pred, bool invert)
{
    const kern::Table *t = kern::g_active.load(std::memory_order_acquire);
    if (!t || flt) [[unlikely]]
        return fused1Slow(src, dst, pred, invert);
    nc_dassert(src < nrows && dst < nrows, "row out of %u", nrows);
    checkOwner();
    if (pred)
        t->copyPred(cells[src].wordData(), cells[dst].wordData(),
                    tagLatch.wordData(), nwords, tmask, invert);
    else
        t->copy(cells[src].wordData(), cells[dst].wordData(), nwords,
                tmask, invert);
}

[[gnu::noinline]] void
Array::fused1Slow(unsigned src, unsigned dst, bool pred, bool invert)
{
    touchRows(src, dst);
    const kern::Table &t = kern::active();
    if (pred)
        t.copyPred(cells[src].wordData(), cells[dst].wordData(),
                   tagLatch.wordData(), nwords, tmask, invert);
    else
        t.copy(cells[src].wordData(), cells[dst].wordData(), nwords,
               tmask, invert);
}

void
Array::fusedImm(unsigned dst, bool pred, uint64_t v)
{
    touchRows(dst);
    const kern::Table &t = kern::active();
    if (pred)
        t.immPred(v, cells[dst].wordData(), tagLatch.wordData(),
                  nwords, tmask);
    else
        t.imm(v, cells[dst].wordData(), nwords, tmask);
}

void
Array::fusedLatchStore(const BitRow &src, unsigned dst, bool pred)
{
    touchRows(dst);
    // src is a latch row: its tail lanes are already zero.
    const kern::Table &t = kern::active();
    if (pred)
        t.latchStorePred(src.wordData(), cells[dst].wordData(),
                         tagLatch.wordData(), nwords);
    else
        t.latchStore(src.wordData(), cells[dst].wordData(), nwords);
}

void
Array::fusedTag(unsigned r, kern::TagFold op)
{
    touchRows(r);
    kern::active().tagFold(op, tagLatch.wordData(),
                           cells[r].wordData(), nwords);
}

void
Array::loadLatch(BitRow &dst, const BitRow &src, bool invert)
{
    kern::active().loadLatch(dst.wordData(), src.wordData(),
                             dst.wordCount(), dst.tailMask(), invert);
}

[[gnu::noinline]] void
Array::refFused2(unsigned ra, unsigned rb, unsigned dst, bool pred,
                 kern::Logic2 op)
{
    Sensed s = sense(ra, rb);
    switch (op) {
    case kern::Logic2::And:
        writeBack(dst, s.bl, pred);
        break;
    case kern::Logic2::Nor:
        writeBack(dst, s.blb, pred);
        break;
    case kern::Logic2::Or:
        writeBack(dst, ~s.blb, pred);
        break;
    case kern::Logic2::Xor:
        writeBack(dst, ~(s.bl | s.blb), pred);
        break;
    case kern::Logic2::Xnor:
        writeBack(dst, s.bl | s.blb, pred);
        break;
    }
}

[[gnu::noinline]] void
Array::refAdd(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    Sensed s = sense(ra, rb);
    BitRow axb = ~(s.bl | s.blb);            // A XOR B
    BitRow sum = axb ^ carryLatch;           // A ^ B ^ Cin
    BitRow cout = s.bl | (axb & carryLatch); // A&B + (A^B)&Cin
    writeBack(dst, sum, pred);
    carryLatch = cout;
}

[[gnu::noinline]] void
Array::refCopy(unsigned src, unsigned dst, bool pred, bool invert)
{
    checkRow(src);
    if (invert)
        writeBack(dst, ~cells[src], pred);
    else
        writeBack(dst, cells[src], pred);
}

void
Array::opAnd(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refFused2(ra, rb, dst, pred, kern::Logic2::And);
    fused2(ra, rb, dst, pred, kern::Logic2::And);
}

void
Array::opNor(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refFused2(ra, rb, dst, pred, kern::Logic2::Nor);
    fused2(ra, rb, dst, pred, kern::Logic2::Nor);
}

void
Array::opOr(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refFused2(ra, rb, dst, pred, kern::Logic2::Or);
    fused2(ra, rb, dst, pred, kern::Logic2::Or);
}

void
Array::opXor(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refFused2(ra, rb, dst, pred, kern::Logic2::Xor);
    fused2(ra, rb, dst, pred, kern::Logic2::Xor);
}

void
Array::opXnor(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refFused2(ra, rb, dst, pred, kern::Logic2::Xnor);
    fused2(ra, rb, dst, pred, kern::Logic2::Xnor);
}

void
Array::opAdd(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    ++nComputeCycles;
    // Sum write-back honours predication; the carry latch updates
    // unconditionally, exactly like the hardware's full-adder cycle.
    // Operand chunks are read before the destination chunk is
    // written, so dst may alias ra or rb (in-place accumulation).
    // Hot shape mirrors fused2: one cold branch, sibling call.
    const kern::Table *t = kern::g_active.load(std::memory_order_acquire);
    if (refMode || !t || flt || ra == rb) [[unlikely]]
        return opAddSlow(ra, rb, dst, pred);
    nc_dassert(ra < nrows && rb < nrows && dst < nrows,
               "row out of %u", nrows);
    checkOwner();
    if (pred)
        t->addPred(cells[ra].wordData(), cells[rb].wordData(),
                   cells[dst].wordData(), carryLatch.wordData(),
                   tagLatch.wordData(), nwords, tmask);
    else
        t->add(cells[ra].wordData(), cells[rb].wordData(),
               cells[dst].wordData(), carryLatch.wordData(), nwords,
               tmask);
}

[[gnu::noinline]] void
Array::opAddSlow(unsigned ra, unsigned rb, unsigned dst, bool pred)
{
    if (refMode)
        return refAdd(ra, rb, dst, pred);
    touchRows(ra, rb, dst);
    nc_assert(ra != rb, "dual activation of the same word line %u", ra);
    const kern::Table &t = kern::active();
    if (pred)
        t.addPred(cells[ra].wordData(), cells[rb].wordData(),
                  cells[dst].wordData(), carryLatch.wordData(),
                  tagLatch.wordData(), nwords, tmask);
    else
        t.add(cells[ra].wordData(), cells[rb].wordData(),
              cells[dst].wordData(), carryLatch.wordData(), nwords,
              tmask);
}

void
Array::opCopy(unsigned src, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refCopy(src, dst, pred, /*invert=*/false);
    fused1(src, dst, pred, /*invert=*/false);
}

void
Array::opCopyInv(unsigned src, unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) [[unlikely]]
        return refCopy(src, dst, pred, /*invert=*/true);
    fused1(src, dst, pred, /*invert=*/true);
}

void
Array::opZero(unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) {
        writeBack(dst, BitRow(ncols, false), pred);
        return;
    }
    fusedImm(dst, pred, 0);
}

void
Array::opOnes(unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) {
        writeBack(dst, BitRow(ncols, true), pred);
        return;
    }
    fusedImm(dst, pred, ~uint64_t(0));
}

void
Array::opLoadTag(unsigned r)
{
    checkRow(r);
    ++nComputeCycles;
    tagLatch = cells[r];
}

void
Array::opLoadTagInv(unsigned r)
{
    checkRow(r);
    ++nComputeCycles;
    if (refMode) {
        tagLatch = ~cells[r];
        return;
    }
    loadLatch(tagLatch, cells[r], /*invert=*/true);
}

void
Array::opTagAnd(unsigned r)
{
    ++nComputeCycles;
    if (refMode) {
        checkRow(r);
        tagLatch = tagLatch & cells[r];
        return;
    }
    fusedTag(r, kern::TagFold::And);
}

void
Array::opTagAndInv(unsigned r)
{
    ++nComputeCycles;
    if (refMode) {
        checkRow(r);
        tagLatch = tagLatch & ~cells[r];
        return;
    }
    fusedTag(r, kern::TagFold::AndInv);
}

void
Array::opTagOr(unsigned r)
{
    ++nComputeCycles;
    if (refMode) {
        checkRow(r);
        tagLatch = tagLatch | cells[r];
        return;
    }
    fusedTag(r, kern::TagFold::Or);
}

void
Array::opTagAndXnor(unsigned ra, unsigned rb)
{
    ++nComputeCycles;
    if (refMode) {
        Sensed s = sense(ra, rb);
        tagLatch = tagLatch & (s.bl | s.blb);
        return;
    }
    touchRows(ra, rb);
    nc_assert(ra != rb, "dual activation of the same word line %u", ra);
    kern::active().tagAndXnor(tagLatch.wordData(),
                              cells[ra].wordData(),
                              cells[rb].wordData(), nwords);
}

void
Array::opLoadTagFromCarry(bool invert)
{
    ++nComputeCycles;
    if (refMode) {
        tagLatch = invert ? ~carryLatch : carryLatch;
        return;
    }
    loadLatch(tagLatch, carryLatch, invert);
}

void
Array::opStoreTag(unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) {
        writeBack(dst, tagLatch, pred);
        return;
    }
    fusedLatchStore(tagLatch, dst, pred);
}

void
Array::opStoreCarry(unsigned dst, bool pred)
{
    ++nComputeCycles;
    if (refMode) {
        writeBack(dst, carryLatch, pred);
        return;
    }
    fusedLatchStore(carryLatch, dst, pred);
}

void
Array::opLaneShift(unsigned src, unsigned dst, unsigned shift,
                   unsigned cycles)
{
    checkRow(src);
    checkRow(dst);
    nComputeCycles += cycles;
    if (refMode) {
        BitRow moved = cells[src].shiftedDown(shift);
        // A member's top `shift` lanes would read its neighbour's
        // bottom lanes: they read 0 instead.
        if (mcols != ncols) {
            for (unsigned i = 0; i < ncols; ++i)
                if (uint64_t(i % mcols) + shift >= mcols)
                    moved.set(i, false);
        }
        cells[dst] = moved;
        return;
    }
    cells[dst].assignShiftedDown(cells[src], shift);
    if (mcols == ncols)
        return;
    // A group row was shifted as one: clear each member's top `shift`
    // lanes, which took their bits from the next member up.
    const unsigned keep = shift < mcols ? mcols - shift : 0;
    const size_t kw = keep / 64;
    const uint64_t kmask = (uint64_t(1) << (keep % 64)) - 1;
    const size_t wpm = mcols / 64;
    uint64_t *to = cells[dst].wordData();
    for (size_t m = 0; m < nwords; m += wpm) {
        size_t i = m + kw;
        if (kmask != 0)
            to[i++] &= kmask;
        std::fill(to + i, to + m + wpm, uint64_t(0));
    }
}

namespace
{

/** Whether bands [a, a + na) and [b, b + nb) share a row. */
bool
overlap(unsigned a, unsigned na, unsigned b, unsigned nb)
{
    return na != 0 && nb != 0 && uint64_t(a) < uint64_t(b) + nb &&
           uint64_t(b) < uint64_t(a) + na;
}

} // namespace

void
Array::bandWords(unsigned base, unsigned bits, uint64_t **out)
{
    nc_dassert(uint64_t(base) + bits <= nrows, "rows [%u,+%u) out of %u",
               base, bits, nrows);
    for (unsigned j = 0; j < bits; ++j)
        out[j] = cells[base + j].wordData();
}

bool
Array::fusedMultiply(unsigned a, unsigned abits, unsigned b,
                     unsigned bbits, unsigned prod, uint64_t cycles)
{
    const unsigned pbits = abits + bbits;
    if (refMode || flt || abits == 0 || bbits == 0 ||
        pbits > kern::kMaxPassRows || overlap(prod, pbits, a, abits) ||
        overlap(prod, pbits, b, bbits))
        return false;
    checkOwner();
    uint64_t *ap[kern::kMaxPassRows], *bp[kern::kMaxPassRows],
        *pp[kern::kMaxPassRows];
    bandWords(a, abits, ap);
    bandWords(b, bbits, bp);
    bandWords(prod, pbits, pp);
    kern::active().multiply({.a = ap,
                             .b = bp,
                             .prod = pp,
                             .acc = nullptr,
                             .zero = nullptr,
                             .carry = carryLatch.wordData(),
                             .tag = tagLatch.wordData(),
                             .abits = abits,
                             .bbits = bbits,
                             .accBits = 0},
                            nwords);
    nComputeCycles += cycles;
    return true;
}

bool
Array::fusedMac(unsigned a, unsigned abits, unsigned b, unsigned bbits,
                unsigned acc, unsigned acc_bits, unsigned scratch,
                unsigned zero_row, uint64_t cycles)
{
    const unsigned pbits = abits + bbits;
    // Accumulator rows above the product add the zero row.
    const bool pads = acc_bits > pbits;
    // A written band (product, accumulator) overlapping another, or
    // a zero row inside one, is a sequence whose order the micro-ops
    // define (or that they reject): decline it. Operands may overlap
    // acc, since the pass reads them before it writes acc.
    if (refMode || flt || abits == 0 || bbits == 0 ||
        pbits > kern::kMaxPassRows || acc_bits > kern::kMaxPassRows ||
        acc_bits < pbits || overlap(scratch, pbits, a, abits) ||
        overlap(scratch, pbits, b, bbits) ||
        overlap(scratch, pbits, acc, acc_bits) ||
        (pads && (zero_row >= nrows ||
                  overlap(zero_row, 1, scratch, pbits) ||
                  overlap(zero_row, 1, acc, acc_bits))))
        return false;
    checkOwner();
    uint64_t *ap[kern::kMaxPassRows], *bp[kern::kMaxPassRows],
        *pp[kern::kMaxPassRows], *accp[kern::kMaxPassRows];
    bandWords(a, abits, ap);
    bandWords(b, bbits, bp);
    bandWords(scratch, pbits, pp);
    bandWords(acc, acc_bits, accp);
    kern::active().mac({.a = ap,
                        .b = bp,
                        .prod = pp,
                        .acc = accp,
                        .zero = pads ? cells[zero_row].wordData() : nullptr,
                        .carry = carryLatch.wordData(),
                        .tag = tagLatch.wordData(),
                        .abits = abits,
                        .bbits = bbits,
                        .accBits = acc_bits},
                       nwords);
    nComputeCycles += cycles;
    return true;
}

bool
Array::fusedReduceSum(unsigned acc, unsigned w0, unsigned lanes,
                      unsigned scratch, uint64_t cycles)
{
    if (refMode || flt || lanes < 2 || !isPow2(lanes))
        return false;
    const unsigned rows = w0 + log2Ceil(lanes);
    if (rows > kern::kMaxPassRows ||
        overlap(acc, rows, scratch, rows - 1))
        return false;
    checkOwner();
    uint64_t *accp[kern::kMaxPassRows], *sp[kern::kMaxPassRows];
    bandWords(acc, rows, accp);
    bandWords(scratch, rows - 1, sp);
    if (!kern::active().reduceSum({.acc = accp,
                                   .scratch = sp,
                                   .carry = carryLatch.wordData(),
                                   .w0 = w0,
                                   .lanes = lanes,
                                   .memberWords = (size_t(mcols) + 63) / 64},
                                  nwords))
        return false;
    nComputeCycles += cycles;
    return true;
}

void
Array::carrySet(bool v)
{
    checkOwner();
    carryLatch.fill(v);
}

void
Array::tagSet(bool v)
{
    checkOwner();
    tagLatch.fill(v);
}

void
Array::resetCycles()
{
    nComputeCycles = 0;
    nAccessCycles = 0;
}

void
Array::chargeCycles(uint64_t compute, uint64_t access)
{
    checkOwner();
    nComputeCycles += compute;
    nAccessCycles += access;
}

} // namespace nc::sram

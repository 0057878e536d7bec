#include "bitserial/alu.hh"

#include <algorithm>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nc::bitserial
{

namespace
{

/** In-place aliasing is only safe when base rows line up exactly. */
void
checkAlias(const VecSlice &out, const VecSlice &in, const char *what)
{
    nc_assert(out.base == in.base || !out.overlaps(in),
              "%s: shifted overlap between slices [%u,+%u) and [%u,+%u)",
              what, out.base, out.bits, in.base, in.bits);
}

void
checkMultiply(const VecSlice &a, const VecSlice &b, const VecSlice &prod)
{
    nc_assert(prod.bits == a.bits + b.bits,
              "product must be %u bits, got %u", a.bits + b.bits,
              prod.bits);
    nc_assert(!prod.overlaps(a) && !prod.overlaps(b),
              "product overlaps an operand");
}

void
checkMacScratch(const VecSlice &a, const VecSlice &b,
                const VecSlice &acc, const VecSlice &scratch)
{
    nc_assert(scratch.bits == a.bits + b.bits, "scratch must fit product");
    nc_assert(acc.bits >= scratch.bits, "accumulator narrower than product");
}

void
checkReduceSum(const VecSlice &acc, unsigned w0, unsigned lanes,
               const VecSlice &scratch)
{
    nc_assert(isPow2(lanes) && lanes >= 1, "lanes %u not a power of two",
              lanes);
    unsigned steps = log2Ceil(lanes);
    nc_assert(acc.bits >= w0 + steps,
              "reduction headroom: need %u rows, have %u", w0 + steps,
              acc.bits);
    nc_assert(steps == 0 || scratch.bits >= w0 + steps - 1,
              "reduction scratch: need %u rows, have %u",
              w0 + steps - 1, scratch.bits);
}

} // namespace

uint64_t
copy(Array &arr, const VecSlice &src, const VecSlice &dst, bool pred)
{
    nc_assert(dst.bits >= src.bits, "copy into narrower slice");
    checkAlias(dst, src, "copy");
    for (unsigned j = 0; j < src.bits; ++j)
        arr.opCopy(src.row(j), dst.row(j), pred);
    return implCopyCycles(src.bits);
}

uint64_t
copyInv(Array &arr, const VecSlice &src, const VecSlice &dst, bool pred)
{
    nc_assert(dst.bits >= src.bits, "copyInv into narrower slice");
    checkAlias(dst, src, "copyInv");
    for (unsigned j = 0; j < src.bits; ++j)
        arr.opCopyInv(src.row(j), dst.row(j), pred);
    return implCopyCycles(src.bits);
}

uint64_t
zero(Array &arr, const VecSlice &dst, bool pred)
{
    for (unsigned j = 0; j < dst.bits; ++j)
        arr.opZero(dst.row(j), pred);
    return implCopyCycles(dst.bits);
}

uint64_t
add(Array &arr, const VecSlice &a, const VecSlice &b, const VecSlice &out,
    unsigned zero_row, bool pred, bool carry_in)
{
    unsigned n = std::max(a.bits, b.bits);
    nc_assert(out.bits == n || out.bits == n + 1,
              "add output %u bits for %u-bit operands", out.bits, n);
    nc_assert(a.bits == b.bits || zero_row != kNoRow,
              "uneven add requires a zero row");
    checkAlias(out, a, "add");
    checkAlias(out, b, "add");

    arr.carrySet(carry_in);
    for (unsigned j = 0; j < n; ++j) {
        unsigned ra = j < a.bits ? a.row(j) : zero_row;
        unsigned rb = j < b.bits ? b.row(j) : zero_row;
        arr.opAdd(ra, rb, out.row(j), pred);
    }
    bool store_carry = out.bits == n + 1;
    if (store_carry)
        arr.opStoreCarry(out.row(n), pred);
    return implAddCycles(n, store_carry);
}

uint64_t
sub(Array &arr, const VecSlice &a, const VecSlice &b, const VecSlice &out,
    const VecSlice &scratch, unsigned zero_row, bool pred)
{
    nc_assert(a.bits == b.bits, "sub requires equal widths");
    nc_assert(scratch.bits >= b.bits, "sub scratch too small");
    uint64_t cycles = copyInv(arr, b, scratch.slice(0, b.bits), pred);
    cycles += add(arr, a, scratch.slice(0, b.bits), out, zero_row, pred,
                  /*carry_in=*/true);
    return cycles;
}

uint64_t
multiply(Array &arr, const VecSlice &a, const VecSlice &b,
         const VecSlice &prod)
{
    checkMultiply(a, b, prod);
    const uint64_t cycles = implMulCycles(a.bits, b.bits);
    if (arr.fusedMultiply(a.base, a.bits, b.base, b.bits, prod.base,
                          cycles))
        return cycles;
    return microops::multiply(arr, a, b, prod);
}

uint64_t
microops::multiply(Array &arr, const VecSlice &a, const VecSlice &b,
                   const VecSlice &prod)
{
    checkMultiply(a, b, prod);
    uint64_t cycles = zero(arr, prod);
    for (unsigned i = 0; i < b.bits; ++i) {
        arr.opLoadTag(b.row(i));
        ++cycles;
        arr.carrySet(false);
        for (unsigned j = 0; j < a.bits; ++j) {
            arr.opAdd(a.row(j), prod.row(i + j), prod.row(i + j),
                      /*pred=*/true);
            ++cycles;
        }
        arr.opStoreCarry(prod.row(i + a.bits), /*pred=*/true);
        ++cycles;
    }
    nc_assert(cycles == implMulCycles(a.bits, b.bits),
              "multiply cycle model drift");
    return cycles;
}

uint64_t
macScratch(Array &arr, const VecSlice &a, const VecSlice &b,
           const VecSlice &acc, const VecSlice &scratch, unsigned zero_row)
{
    checkMacScratch(a, b, acc, scratch);
    const uint64_t cycles = implMulCycles(a.bits, b.bits) +
                            implAddCycles(acc.bits, false);
    if (arr.fusedMac(a.base, a.bits, b.base, b.bits, acc.base, acc.bits,
                     scratch.base, zero_row, cycles))
        return cycles;
    return microops::macScratch(arr, a, b, acc, scratch, zero_row);
}

uint64_t
microops::macScratch(Array &arr, const VecSlice &a, const VecSlice &b,
                     const VecSlice &acc, const VecSlice &scratch,
                     unsigned zero_row)
{
    checkMacScratch(a, b, acc, scratch);
    uint64_t cycles = microops::multiply(arr, a, b, scratch);
    cycles += add(arr, scratch, acc, acc, zero_row);
    nc_assert(a.bits != b.bits ||
                  cycles == implMacScratchCycles(a.bits, acc.bits),
              "macScratch cycle model drift");
    return cycles;
}

uint64_t
reduceSum(Array &arr, const VecSlice &acc, unsigned w0, unsigned lanes,
          const VecSlice &scratch, const AluConfig &cfg)
{
    checkReduceSum(acc, w0, lanes, scratch);
    const uint64_t cycles =
        implReduceSumCycles(w0, lanes, cfg.moveCyclesPerRow);
    if (arr.fusedReduceSum(acc.base, w0, lanes, scratch.base, cycles))
        return cycles;
    return microops::reduceSum(arr, acc, w0, lanes, scratch, cfg);
}

uint64_t
microops::reduceSum(Array &arr, const VecSlice &acc, unsigned w0,
                    unsigned lanes, const VecSlice &scratch,
                    const AluConfig &cfg)
{
    checkReduceSum(acc, w0, lanes, scratch);
    uint64_t cycles = 0;
    unsigned w = w0;
    for (unsigned k = lanes; k > 1; k >>= 1) {
        unsigned shift = k / 2;
        for (unsigned j = 0; j < w; ++j) {
            arr.opLaneShift(acc.row(j), scratch.row(j), shift,
                            cfg.moveCyclesPerRow);
            cycles += cfg.moveCyclesPerRow;
        }
        arr.carrySet(false);
        for (unsigned j = 0; j < w; ++j) {
            arr.opAdd(acc.row(j), scratch.row(j), acc.row(j));
            ++cycles;
        }
        arr.opStoreCarry(acc.row(w));
        ++cycles;
        ++w;
    }
    nc_assert(cycles ==
                  implReduceSumCycles(w0, lanes, cfg.moveCyclesPerRow),
              "reduceSum cycle model drift");
    return cycles;
}

uint64_t
maxInto(Array &arr, const VecSlice &a, const VecSlice &b,
        const VecSlice &scratch)
{
    nc_assert(a.bits == b.bits && scratch.bits >= a.bits,
              "maxInto width mismatch");
    unsigned n = a.bits;
    VecSlice s = scratch.slice(0, n);
    uint64_t cycles = copyInv(arr, b, s);
    arr.carrySet(true);
    for (unsigned j = 0; j < n; ++j) {
        arr.opAdd(a.row(j), s.row(j), s.row(j));
        ++cycles;
    }
    arr.opLoadTagFromCarry(/*invert=*/true); // tag = (a < b)
    ++cycles;
    cycles += copy(arr, b, a, /*pred=*/true);
    nc_assert(cycles == implMaxCycles(n), "maxInto cycle model drift");
    return cycles;
}

uint64_t
minInto(Array &arr, const VecSlice &a, const VecSlice &b,
        const VecSlice &scratch)
{
    nc_assert(a.bits == b.bits && scratch.bits >= a.bits,
              "minInto width mismatch");
    unsigned n = a.bits;
    VecSlice s = scratch.slice(0, n);
    uint64_t cycles = copyInv(arr, b, s);
    arr.carrySet(true);
    for (unsigned j = 0; j < n; ++j) {
        arr.opAdd(a.row(j), s.row(j), s.row(j));
        ++cycles;
    }
    arr.opLoadTagFromCarry(/*invert=*/false); // tag = (a >= b)
    ++cycles;
    cycles += copy(arr, b, a, /*pred=*/true);
    return cycles;
}

uint64_t
reduceMax(Array &arr, const VecSlice &data, unsigned lanes,
          const VecSlice &move, const VecSlice &cmp, bool take_min,
          const AluConfig &cfg)
{
    nc_assert(isPow2(lanes), "lanes %u not a power of two", lanes);
    nc_assert(move.bits >= data.bits && cmp.bits >= data.bits,
              "reduceMax scratch too small");

    uint64_t cycles = 0;
    for (unsigned k = lanes; k > 1; k >>= 1) {
        unsigned shift = k / 2;
        for (unsigned j = 0; j < data.bits; ++j) {
            arr.opLaneShift(data.row(j), move.row(j), shift,
                            cfg.moveCyclesPerRow);
            cycles += cfg.moveCyclesPerRow;
        }
        VecSlice m = move.slice(0, data.bits);
        cycles += take_min ? minInto(arr, data, m, cmp)
                           : maxInto(arr, data, m, cmp);
    }
    nc_assert(cycles == implReduceMaxCycles(data.bits, lanes,
                                            cfg.moveCyclesPerRow),
              "reduceMax cycle model drift");
    return cycles;
}

uint64_t
compareGE(Array &arr, const VecSlice &a, const VecSlice &b,
          const VecSlice &scratch)
{
    nc_assert(a.bits == b.bits && scratch.bits >= b.bits,
              "compareGE width mismatch");
    unsigned n = a.bits;
    VecSlice s = scratch.slice(0, n);
    uint64_t cycles = copyInv(arr, b, s);
    arr.carrySet(true);
    for (unsigned j = 0; j < n; ++j) {
        arr.opAdd(a.row(j), s.row(j), s.row(j));
        ++cycles;
    }
    arr.opLoadTagFromCarry();
    ++cycles;
    nc_assert(cycles == implCompareCycles(n), "compareGE cycle drift");
    return cycles;
}

uint64_t
relu(Array &arr, const VecSlice &val)
{
    arr.opLoadTag(val.row(val.bits - 1)); // tag = sign bit
    uint64_t cycles = 1;
    cycles += zero(arr, val, /*pred=*/true);
    nc_assert(cycles == implReluCycles(val.bits), "relu cycle drift");
    return cycles;
}

uint64_t
shiftDown(Array &arr, const VecSlice &val, unsigned k)
{
    unsigned w = val.bits;
    if (k >= w)
        return zero(arr, val);
    for (unsigned j = 0; j + k < w; ++j)
        arr.opCopy(val.row(j + k), val.row(j));
    for (unsigned j = w - k; j < w; ++j)
        arr.opZero(val.row(j));
    return implShiftCycles(w);
}

uint64_t
divide(Array &arr, const VecSlice &num, const VecSlice &den,
       const VecSlice &quot, const VecSlice &rwork, const VecSlice &twork,
       const VecSlice &dwork)
{
    unsigned n = num.bits;
    unsigned d = den.bits;
    nc_assert(quot.bits >= n, "quotient too narrow");
    nc_assert(rwork.bits >= n + d, "rwork needs %u rows", n + d);
    nc_assert(twork.bits >= d + 1 && dwork.bits >= d + 1,
              "t/d work bands need %u rows", d + 1);

    // R <= zero-extended dividend.
    uint64_t cycles = copy(arr, num, rwork.slice(0, n));
    cycles += zero(arr, rwork.slice(n, d));

    // One's complement of the divisor, plus the implicit high 1 bit
    // (complement of the divisor's zero extension).
    cycles += copyInv(arr, den, dwork.slice(0, d));
    arr.opOnes(dwork.row(d));
    ++cycles;

    for (unsigned i = n; i-- > 0;) {
        // T <= R[i .. i+d] - den  (add of the complement, carry-in 1).
        arr.carrySet(true);
        for (unsigned j = 0; j <= d; ++j) {
            arr.opAdd(rwork.row(i + j), dwork.row(j), twork.row(j));
            ++cycles;
        }
        arr.opLoadTagFromCarry(); // tag = no-borrow = (window >= den)
        ++cycles;
        arr.opStoreTag(quot.row(i));
        ++cycles;
        for (unsigned j = 0; j <= d; ++j) {
            arr.opCopy(twork.row(j), rwork.row(i + j), /*pred=*/true);
            ++cycles;
        }
    }
    nc_assert(cycles == implDivCycles(n, d), "divide cycle model drift");
    return cycles;
}

} // namespace nc::bitserial

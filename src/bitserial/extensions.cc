#include "bitserial/extensions.hh"

#include "common/bits.hh"
#include "common/logging.hh"

namespace nc::bitserial
{

uint64_t
equalCompare(Array &arr, const VecSlice &a, const VecSlice &b,
             const VecSlice &scratch)
{
    nc_assert(a.bits == b.bits, "equalCompare width mismatch");
    (void)scratch; // kept in the signature for layout symmetry
    arr.tagSet(true);
    for (unsigned j = 0; j < a.bits; ++j)
        arr.opTagAndXnor(a.row(j), b.row(j));
    return a.bits;
}

uint64_t
searchKey(Array &arr, const VecSlice &slice, uint64_t key)
{
    nc_assert(slice.bits <= 64, "key wider than 64 bits");
    nc_assert(truncate(key, slice.bits) == key,
              "key 0x%llx exceeds %u bits",
              static_cast<unsigned long long>(key), slice.bits);
    arr.tagSet(true);
    for (unsigned j = 0; j < slice.bits; ++j) {
        if (bit(key, j))
            arr.opTagAnd(slice.row(j));
        else
            arr.opTagAndInv(slice.row(j));
    }
    return slice.bits;
}

unsigned
matchCount(const Array &arr)
{
    return arr.tag().popcount();
}

uint64_t
batchNorm(Array &arr, const VecSlice &val, const VecSlice &gamma,
          const VecSlice &beta, unsigned shift, const VecSlice &prod,
          unsigned zero_row)
{
    nc_assert(beta.bits == val.bits, "beta width must match value");
    nc_assert(prod.bits == val.bits + gamma.bits,
              "product band needs %u rows", val.bits + gamma.bits);
    nc_assert(shift + val.bits <= prod.bits,
              "shift %u pushes the window past the product", shift);

    uint64_t cycles = multiply(arr, val, gamma, prod);
    // val <= prod >> shift (copy the shifted window back).
    for (unsigned j = 0; j < val.bits; ++j) {
        arr.opCopy(prod.row(shift + j), val.row(j));
        ++cycles;
    }
    cycles += add(arr, val, beta, val, zero_row);
    nc_assert(cycles == implBatchNormCycles(val.bits, gamma.bits),
              "batchNorm cycle model drift");
    return cycles;
}

uint64_t
saturate(Array &arr, const VecSlice &val, unsigned out_bits)
{
    nc_assert(out_bits > 0 && out_bits < val.bits,
              "saturate to %u bits of a %u-bit value", out_bits,
              val.bits);
    arr.tagSet(false);
    uint64_t cycles = 0;
    for (unsigned j = out_bits; j < val.bits; ++j) {
        arr.opTagOr(val.row(j));
        ++cycles;
    }
    for (unsigned j = 0; j < out_bits; ++j) {
        arr.opOnes(val.row(j), /*pred=*/true);
        ++cycles;
    }
    nc_assert(cycles == implSaturateCycles(val.bits, out_bits),
              "saturate cycle model drift");
    return cycles;
}

uint64_t
macScratchSkipZero(Array &arr, const VecSlice &a, const VecSlice &b,
                   const VecSlice &acc, const VecSlice &scratch,
                   unsigned zero_row)
{
    // One compute cycle: activate the whole multiplier band and sense
    // the wired-OR — zero iff every lane of every bit row is zero.
    bool any = false;
    for (unsigned j = 0; j < b.bits && !any; ++j)
        any = arr.rowRef(b.row(j)).popcount() != 0;
    arr.opZero(scratch.row(0), /*pred=*/false); // the detect cycle
    if (!any)
        return implMacSkipHitCycles();
    uint64_t cycles = 1 + macScratch(arr, a, b, acc, scratch, zero_row);
    nc_assert(a.bits != b.bits ||
                  cycles == implMacSkipMissCycles(a.bits, acc.bits),
              "macScratchSkipZero cycle model drift");
    return cycles;
}

} // namespace nc::bitserial

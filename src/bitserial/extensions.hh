/**
 * @file
 * ALU extensions beyond the paper's core arithmetic. Four groups:
 *
 *  - Compute Cache heritage ops (HPCA'17 [9], which Neural Cache
 *    builds on): lane-wise equality into the tag latch and
 *    associative key search — both built from XNOR sensing plus the
 *    tag-AND compound predicate.
 *
 *  - Batch normalization (paper §IV-D): y = ((x * gamma) >> shift)
 *    + beta with per-lane (per-channel) integer gamma/beta, exactly
 *    the multiply/shift/add sequence the paper describes running
 *    in-cache after the CPU computes the scalars.
 *
 *  - Zero-skipping MAC (paper §VII names sparsity exploitation as
 *    future work): a one-cycle wired-OR zero detect of the multiplier
 *    slice lets fully-zero passes skip the whole multiply.
 *
 *  - The saturating narrow that clamps a requantized value to 8 bits
 *    (§IV-D): the Saturate instruction that ends the requant and
 *    eltwise merge programs.
 */

#ifndef NC_BITSERIAL_EXTENSIONS_HH
#define NC_BITSERIAL_EXTENSIONS_HH

#include "bitserial/alu.hh"

namespace nc::bitserial
{

/**
 * Tag <= (a == b) lane-wise: one tag-AND-XNOR cycle per bit (the tag
 * preset travels with the first cycle's control word). Costs a.bits
 * cycles; `scratch` is unused and kept only for signature symmetry
 * with the other comparison helpers.
 */
uint64_t equalCompare(Array &arr, const VecSlice &a, const VecSlice &b,
                      const VecSlice &scratch);

/**
 * Associative search (Compute Cache's search/BCAM mode): tag <=
 * (lane value == key) for a broadcast scalar key. Bits of the key
 * select whether the stored bit or its complement feeds the tag-AND,
 * so no scratch is needed: one cycle per bit.
 */
uint64_t searchKey(Array &arr, const VecSlice &slice, uint64_t key);

/** Count of matching lanes after searchKey() (free: read the tag). */
unsigned matchCount(const Array &arr);

/**
 * In-place batch normalization (paper §IV-D):
 *   val <= ((val * gamma) >> shift) + beta   (all unsigned)
 * gamma is g_bits wide, beta matches val.bits. `prod` needs
 * val.bits + g_bits rows of scratch. Returns cycles.
 */
uint64_t batchNorm(Array &arr, const VecSlice &val,
                   const VecSlice &gamma, const VecSlice &beta,
                   unsigned shift, const VecSlice &prod,
                   unsigned zero_row);

/** Closed-form cost of batchNorm(). */
constexpr uint64_t
implBatchNormCycles(unsigned vbits, unsigned gbits)
{
    // multiply + copy of the shifted window + final add.
    return implMulCycles(vbits, gbits) + vbits + vbits;
}

/**
 * acc += a * b like macScratch(), but a one-cycle wired-OR zero
 * detect of the multiplier band skips the multiply + add entirely
 * when every lane's multiplier is zero. Worst case costs one cycle
 * more than macScratch; all-zero passes cost 1 cycle.
 */
uint64_t macScratchSkipZero(Array &arr, const VecSlice &a,
                            const VecSlice &b, const VecSlice &acc,
                            const VecSlice &scratch, unsigned zero_row);

/** Closed-form costs of the zero-skip MAC's two outcomes. */
constexpr uint64_t
implMacSkipHitCycles()
{
    return 1;
}

constexpr uint64_t
implMacSkipMissCycles(unsigned n, unsigned w)
{
    return 1 + implMacScratchCycles(n, w);
}

/**
 * Saturating narrow: clamp the wide unsigned value in `val` to its
 * low @p out_bits (lanes whose upper bits are non-zero get all-ones
 * in the low field). This is the clamp of §IV-D requantization, done
 * in-array: fold the upper rows into the tag with OR, then a
 * predicated all-ones write over the low field.
 */
uint64_t saturate(Array &arr, const VecSlice &val, unsigned out_bits);

constexpr uint64_t
implSaturateCycles(unsigned vbits, unsigned out_bits)
{
    return (vbits - out_bits) + out_bits;
}

} // namespace nc::bitserial

#endif // NC_BITSERIAL_EXTENSIONS_HH

/**
 * @file
 * The bit-serial vector ALU (paper §III).
 *
 * Every function issues a deterministic micro-op sequence against one
 * sram::Array and returns the number of compute cycles consumed; the
 * counts are exactly the `impl*Cycles` formulas in cost.hh (enforced by
 * tests). All operations are SIMD across the array's bit lines: lane i
 * computes on element i of each operand slice.
 *
 * Which path runs: multiply, macScratch and reduceSum first offer the
 * array their fused pass (sram::Array::fusedMultiply/fusedMac/
 * fusedReduceSum), one sweep that leaves the array and its cycle
 * counter exactly as the micro-op sequence would. A reference-mode
 * or faulted array, or a shape the pass declines, runs the sequence
 * op by op (namespace microops below) — so fault campaigns keep their
 * per-touch order and the reference baseline is unchanged. Every
 * other function always issues its micro-ops.
 *
 * Conventions:
 *  - Elements are unsigned, LSB on the lowest word line of the slice,
 *    except where a function documents two's-complement semantics.
 *  - `zero_row` is the array's reserved all-zero word line
 *    (RowAllocator::zeroRow()); ops that pad uneven operand widths or
 *    propagate carries require it.
 *  - Output slices may alias an input slice only when base rows are
 *    equal (in-place accumulation); partially shifted overlap is
 *    rejected.
 */

#ifndef NC_BITSERIAL_ALU_HH
#define NC_BITSERIAL_ALU_HH

#include <cstdint>

#include "bitserial/cost.hh"
#include "bitserial/layout.hh"
#include "sram/array.hh"

namespace nc::bitserial
{

using sram::Array;

/** dst <= src. @return cycles (src.bits). */
uint64_t copy(Array &arr, const VecSlice &src, const VecSlice &dst,
              bool pred = false);

/** dst <= ~src (lane-wise one's complement). */
uint64_t copyInv(Array &arr, const VecSlice &src, const VecSlice &dst,
                 bool pred = false);

/** dst <= 0. */
uint64_t zero(Array &arr, const VecSlice &dst, bool pred = false);

/**
 * out <= a + b (+ carry_in), unsigned.
 *
 * Widths may differ if @p zero_row is provided (the shorter operand is
 * padded by activating the zero row). out.bits must equal
 * max(a.bits, b.bits) (modular sum) or one more (carry-out stored).
 */
uint64_t add(Array &arr, const VecSlice &a, const VecSlice &b,
             const VecSlice &out, unsigned zero_row = kNoRow,
             bool pred = false, bool carry_in = false);

/**
 * out <= a - b (two's complement wraparound); `scratch` must hold
 * b.bits rows and is clobbered with ~b. After return the carry latch
 * holds the lane-wise "no borrow" flag (1 iff a >= b).
 */
uint64_t sub(Array &arr, const VecSlice &a, const VecSlice &b,
             const VecSlice &out, const VecSlice &scratch,
             unsigned zero_row = kNoRow, bool pred = false);

/**
 * prod <= a * b, unsigned. prod.bits must equal a.bits + b.bits and
 * must not overlap the operands. Uses the tag-predicated shift-and-add
 * scheme of paper Figure 6.
 */
uint64_t multiply(Array &arr, const VecSlice &a, const VecSlice &b,
                  const VecSlice &prod);

/**
 * acc += a * b via a (a.bits+b.bits)-wide scratch band: multiply into
 * scratch, then one wide add (the paper's Figure 10 scratchpad flow).
 */
uint64_t macScratch(Array &arr, const VecSlice &a, const VecSlice &b,
                    const VecSlice &acc, const VecSlice &scratch,
                    unsigned zero_row);

/**
 * In-place lane-tree sum reduction (paper Figure 5).
 *
 * `acc` holds `lanes` (power of two) elements that are live in the low
 * @p w0 bits; rows [w0, acc.bits) are scratch headroom and need not be
 * zeroed. After return, lane 0's low w0+log2(lanes) bits hold the sum
 * of lanes [0, lanes); other lanes hold partial sums. `scratch` needs
 * w0 + log2(lanes) - 1 rows.
 */
uint64_t reduceSum(Array &arr, const VecSlice &acc, unsigned w0,
                   unsigned lanes, const VecSlice &scratch,
                   const AluConfig &cfg = {});

/**
 * The micro-op expansions of the macro-ops that have a fused pass:
 * what multiply, macScratch and reduceSum run when the array declines
 * the pass, issued op by op on any array. They are the oracle the
 * passes are tested against, and benches time them side by side.
 */
namespace microops
{
uint64_t multiply(Array &arr, const VecSlice &a, const VecSlice &b,
                  const VecSlice &prod);
uint64_t macScratch(Array &arr, const VecSlice &a, const VecSlice &b,
                    const VecSlice &acc, const VecSlice &scratch,
                    unsigned zero_row);
uint64_t reduceSum(Array &arr, const VecSlice &acc, unsigned w0,
                   unsigned lanes, const VecSlice &scratch,
                   const AluConfig &cfg = {});
} // namespace microops

/** a <= max(a, b) lane-wise, unsigned. scratch: a.bits rows. */
uint64_t maxInto(Array &arr, const VecSlice &a, const VecSlice &b,
                 const VecSlice &scratch);

/** a <= min(a, b) lane-wise, unsigned. */
uint64_t minInto(Array &arr, const VecSlice &a, const VecSlice &b,
                 const VecSlice &scratch);

/**
 * Lane-tree max (or min) reduction: lane 0 of `data` ends up with the
 * extremum of lanes [0, lanes). `move` and `cmp` are data.bits-row
 * scratch bands.
 */
uint64_t reduceMax(Array &arr, const VecSlice &data, unsigned lanes,
                   const VecSlice &move, const VecSlice &cmp,
                   bool take_min = false, const AluConfig &cfg = {});

/** Tag latch <= (a >= b) unsigned; scratch clobbered (a.bits rows). */
uint64_t compareGE(Array &arr, const VecSlice &a, const VecSlice &b,
                   const VecSlice &scratch);

/** val <= max(val, 0) for two's-complement val (paper §IV-D ReLU). */
uint64_t relu(Array &arr, const VecSlice &val);

/** val >>= k (logical), in place. */
uint64_t shiftDown(Array &arr, const VecSlice &val, unsigned k);

/**
 * quot <= num / den, rem window left in `rwork` low den.bits rows.
 * Unsigned restoring division. `rwork` needs num.bits + den.bits rows
 * (clobbered), `twork` den.bits + 1 rows, `dwork` den.bits + 1 rows.
 * Lanes whose divisor is zero produce all-ones quotients.
 */
uint64_t divide(Array &arr, const VecSlice &num, const VecSlice &den,
                const VecSlice &quot, const VecSlice &rwork,
                const VecSlice &twork, const VecSlice &dwork);

} // namespace nc::bitserial

#endif // NC_BITSERIAL_ALU_HH

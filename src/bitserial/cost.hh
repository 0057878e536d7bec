/**
 * @file
 * Closed-form cycle costs of the bit-serial operations.
 *
 * Two families live here:
 *
 *  1. `impl*Cycles` — exact counts of the micro-op sequences our ALU
 *     (alu.hh) issues. Property tests assert that the functional
 *     simulator consumes exactly these many compute cycles, so the
 *     analytic cost model and the functional model can never drift.
 *
 *  2. `paper*Cycles` — the formulas quoted by the paper (§III-B/C:
 *     addition n+1, multiplication n^2+5n-2, division 1.5n^2+5.5n).
 *     The Neural Cache cost model can be run in "paper" mode that uses
 *     these instead, for apples-to-apples reproduction of the
 *     evaluation numbers. bench/table5_array_model prints both.
 */

#ifndef NC_BITSERIAL_COST_HH
#define NC_BITSERIAL_COST_HH

#include <cstdint>

#include "common/bits.hh"

namespace nc::bitserial
{

/** Tunable micro-costs of the ALU. */
struct AluConfig
{
    /**
     * Compute cycles to move one word line to another word line with a
     * lane shift (sense-amp cycling through the column mux): one sense
     * phase plus one drive phase.
     */
    unsigned moveCyclesPerRow = 2;
};

/** Copy / inverted copy / zero / ones of an n-bit slice. */
constexpr uint64_t
implCopyCycles(unsigned n)
{
    return n;
}

/** Addition of two n-bit slices; +1 when the carry-out is stored. */
constexpr uint64_t
implAddCycles(unsigned n, bool store_carry)
{
    return n + (store_carry ? 1 : 0);
}

/** Subtraction: invert subtrahend (n) then add with carry-in 1. */
constexpr uint64_t
implSubCycles(unsigned n, bool store_carry)
{
    return 2 * uint64_t(n) + (store_carry ? 1 : 0);
}

/**
 * Multiplication of an m-bit multiplicand by an n-bit multiplier into
 * an (m+n)-bit product: zero the product band, then per multiplier bit
 * one tag load, m predicated adds, and one predicated carry store.
 */
constexpr uint64_t
implMulCycles(unsigned m, unsigned n)
{
    return (uint64_t(m) + n) + uint64_t(n) * (m + 2);
}

/** Square multiply (both operands n bits): n^2 + 4n. */
constexpr uint64_t
implMulCycles(unsigned n)
{
    return implMulCycles(n, n);
}

/**
 * MAC through the scratchpad (paper Figure 10 layout): multiply into a
 * 2n-bit scratch band, then add the scratch into the w-bit partial sum.
 */
constexpr uint64_t
implMacScratchCycles(unsigned n, unsigned w)
{
    return implMulCycles(n) + w;
}

/**
 * Lane-tree sum reduction of `lanes` (power of two) elements that start
 * w0 bits wide. Each of the log2(lanes) steps moves the live width
 * across lanes (moveCyclesPerRow per word line), adds, and stores the
 * carry, growing the live width by one bit.
 */
constexpr uint64_t
implReduceSumCycles(unsigned w0, unsigned lanes, unsigned move_per_row)
{
    uint64_t cycles = 0;
    unsigned w = w0;
    for (unsigned k = lanes; k > 1; k >>= 1) {
        cycles += uint64_t(move_per_row) * w; // lane move
        cycles += w;                          // add
        cycles += 1;                          // carry store
        ++w;
    }
    return cycles;
}

/** Lane-wise max/min of two n-bit slices into the first. */
constexpr uint64_t
implMaxCycles(unsigned n)
{
    return 3 * uint64_t(n) + 1;
}

/** Lane-tree max/min reduction over `lanes` n-bit elements. */
constexpr uint64_t
implReduceMaxCycles(unsigned n, unsigned lanes, unsigned move_per_row)
{
    uint64_t cycles = 0;
    for (unsigned k = lanes; k > 1; k >>= 1)
        cycles += uint64_t(move_per_row) * n + implMaxCycles(n);
    return cycles;
}

/** Unsigned comparison a >= b into the tag latch. */
constexpr uint64_t
implCompareCycles(unsigned n)
{
    return 2 * uint64_t(n) + 1;
}

/** ReLU of a w-bit two's-complement slice. */
constexpr uint64_t
implReluCycles(unsigned w)
{
    return 1 + uint64_t(w);
}

/** Logical shift (either direction) of a w-bit slice. */
constexpr uint64_t
implShiftCycles(unsigned w)
{
    return w;
}

/**
 * Restoring division: n-bit dividend / d-bit divisor. Remainder init
 * (n+d rows) and one-time divisor inversion (d+1 rows), then per
 * quotient bit a (d+1)-bit windowed subtract, tag capture, quotient
 * store, and predicated restore.
 */
constexpr uint64_t
implDivCycles(unsigned n, unsigned d)
{
    return (uint64_t(n) + d) + (uint64_t(d) + 1) +
           uint64_t(n) * (2 * uint64_t(d) + 4);
}

/** @name Formulas as published (paper §III-B/C). */
/// @{
constexpr uint64_t
paperAddCycles(unsigned n)
{
    return uint64_t(n) + 1;
}

constexpr uint64_t
paperMulCycles(unsigned n)
{
    return uint64_t(n) * n + 5 * uint64_t(n) - 2;
}

constexpr double
paperDivCycles(unsigned n)
{
    return 1.5 * n * n + 5.5 * n;
}
/// @}

} // namespace nc::bitserial

#endif // NC_BITSERIAL_COST_HH

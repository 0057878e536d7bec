/**
 * @file
 * Width-templated compute kernels behind sram::Array, with runtime
 * SIMD dispatch.
 *
 * Every fused micro-op pass (sense + logic + predicated write-back
 * over a row's 64-bit words) and the word-parallel data-movement
 * passes of bitserial::storeVector/loadVector exist in up to three
 * instantiations of one templated inner kernel: portable uint64_t
 * (64 lanes per step), AVX2 (256 lanes), and AVX-512 (512 lanes).
 * Carry and predicate lanes stay in-register across a pass at every
 * width; wider tiers fall through to the next-narrower kernel for
 * the remainder words of rows that are not a multiple of their step.
 *
 * A Table bundles one tier's kernels as function pointers. Dispatch
 * picks a table once, lazily at the first op: the host's best tier
 * (CPUID intersected with what this build compiled — a tier whose
 * -m flags the compiler lacked degrades to a nullptr table), unless
 * NC_SIMD=scalar|avx2|avx512|auto overrides it (strict-parsed; a
 * tier the host can't run is fatal, naming the best one it can —
 * see common/simd.hh). Tests and benches pin tiers explicitly with
 * forceTier().
 *
 * Each tier is pinned bit-exact — rows, carry/tag latches, and cycle
 * counts — against Array's bit-by-bit reference mode by the
 * differential suites (tests/sram/test_array_kernels.cc forces every
 * available tier in turn).
 *
 * Fused passes. Three macro-ops — bitserial::multiply, macScratch and
 * reduceSum — also have a pass each that computes the whole macro-op
 * in one sweep over its rows' words, carry and tag latches held in
 * registers, leaving every row and latch exactly as the ALU's
 * micro-op expansion does. Array::fusedMultiply/fusedMac/
 * fusedReduceSum run them on an ideal array in fast mode; a
 * reference-mode or faulted array, or a shape a pass does not take,
 * runs the micro-ops through the entries above instead. Each pass
 * beats its micro-ops at every tier (bench/micro_simspeed), so no
 * tier declines a shape for speed.
 * tests/bitserial/test_fused_passes.cc pins each pass against the
 * micro-ops of a reference-mode copy at every tier.
 */

#ifndef NC_SRAM_KERNELS_HH
#define NC_SRAM_KERNELS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.hh"

namespace nc::sram::kern
{

/** Two-operand logic family (the BL/BLB sense combinations). */
enum class Logic2
{
    And,
    Nor,
    Or,
    Xor,
    Xnor,
};

/** Tag-latch folds against one sensed row. */
enum class TagFold
{
    And,    ///< tag &= row
    AndInv, ///< tag &= ~row
    Or,     ///< tag |= row
};

/** Widest band (rows) a fused pass takes; wider ones decline. */
constexpr unsigned kMaxPassRows = 64;

/**
 * The rows of one fused shift-and-add pass: bitserial::multiply (acc
 * unused) or macScratch (prod is its scratch band). Each band is a
 * list of row word pointers, LSB first.
 */
struct MulRows
{
    const uint64_t *const *a; ///< multiplicand, abits rows
    const uint64_t *const *b; ///< multiplier, bbits rows
    uint64_t *const *prod;    ///< product, abits + bbits rows
    uint64_t *const *acc;     ///< accumulator, accBits rows (Mac)
    const uint64_t *zero;     ///< zero row, read as stored (Mac)
    uint64_t *carry;
    uint64_t *tag;
    unsigned abits, bbits, accBits;
};

/** The rows of one fused lane-tree reduction (bitserial::reduceSum). */
struct ReduceRows
{
    uint64_t *const *acc;     ///< w0 + log2(lanes) rows
    uint64_t *const *scratch; ///< w0 + log2(lanes) - 1 rows
    uint64_t *carry;
    unsigned w0, lanes;       ///< lanes: a power of two >= 2
    size_t memberWords;       ///< words per member (lane shifts stop there)
};

/**
 * One tier's kernel set. All row pointers are to BitRow word storage
 * (64 lanes per word, zero-tail invariant); @p nw is the word count,
 * @p tm the valid-lane mask of the last word. The *Pred variants
 * commit d only in lanes where the tag word t holds 1; they are
 * separate entries (rather than a bool flag) so the unpredicated
 * forms — the inner loops of every arithmetic kernel — fit entirely
 * in argument registers and Array's hot ops can sibling-call them
 * without building a stack frame.
 */
struct Table
{
    common::simd::Tier tier;

    /** d <= op(a, b), tail-masked. */
    void (*logic2)(Logic2 op, const uint64_t *a, const uint64_t *b,
                   uint64_t *d, size_t nw, uint64_t tm);
    void (*logic2Pred)(Logic2 op, const uint64_t *a,
                       const uint64_t *b, uint64_t *d,
                       const uint64_t *t, size_t nw, uint64_t tm);
    /**
     * Full-adder pass: d <= a^b^c, c <= majority (in the predicated
     * form the carry still updates unconditionally). d may alias a
     * or b — each chunk's operand words are loaded before its
     * stores, and chunks run forward.
     */
    void (*add)(const uint64_t *a, const uint64_t *b, uint64_t *d,
                uint64_t *c, size_t nw, uint64_t tm);
    void (*addPred)(const uint64_t *a, const uint64_t *b,
                    uint64_t *d, uint64_t *c, const uint64_t *t,
                    size_t nw, uint64_t tm);
    /** d <= s (or ~s), tail-masked. */
    void (*copy)(const uint64_t *s, uint64_t *d, size_t nw,
                 uint64_t tm, bool invert);
    void (*copyPred)(const uint64_t *s, uint64_t *d,
                     const uint64_t *t, size_t nw, uint64_t tm,
                     bool invert);
    /** d <= the constant word v in every word, tail-masked. */
    void (*imm)(uint64_t v, uint64_t *d, size_t nw, uint64_t tm);
    void (*immPred)(uint64_t v, uint64_t *d, const uint64_t *t,
                    size_t nw, uint64_t tm);
    /** d <= s where s is a latch row (tail already zero: no mask). */
    void (*latchStore)(const uint64_t *s, uint64_t *d, size_t nw);
    void (*latchStorePred)(const uint64_t *s, uint64_t *d,
                           const uint64_t *t, size_t nw);
    /** t <= fold(t, s); both operands already tail-masked. */
    void (*tagFold)(TagFold op, uint64_t *t, const uint64_t *s,
                    size_t nw);
    /** t &= ~(a ^ b) — the equality-search fold. */
    void (*tagAndXnor)(uint64_t *t, const uint64_t *a,
                       const uint64_t *b, size_t nw);
    /** d <= s (or ~s) into a latch row; last word always masked. */
    void (*loadLatch)(uint64_t *d, const uint64_t *s, size_t nw,
                      uint64_t tm, bool invert);
    /**
     * In-place 64x64 bit-matrix transpose of @p nblocks consecutive
     * 64-word blocks (the batched form of nc::transpose64).
     */
    void (*transposeBlocks)(uint64_t *blocks, size_t nblocks);
    /**
     * Bit-plane pack for narrow elements (bits <= 8): plane word
     * planes[b * nblocks + blk] receives bit b of the 64 values of
     * block blk (vals beyond nvals read as 0). Lets storeVector skip
     * the full transpose for the dominant 8-bit-quantized layouts.
     */
    void (*packPlanes)(const uint64_t *vals, size_t nvals,
                       unsigned bits, uint64_t *planes,
                       size_t nblocks);
    /**
     * Fused passes over rows of @p nw words: the whole macro-op,
     * every row and latch it writes, in every lane. reduceSum
     * returns false, touching nothing, for members wider than its
     * word loop holds (4096 lanes); the caller then runs the
     * micro-ops.
     */
    void (*multiply)(const MulRows &r, size_t nw);
    void (*mac)(const MulRows &r, size_t nw);
    bool (*reduceSum)(const ReduceRows &r, size_t nw);
};

/** @name Per-tier tables (internal linkage points)
 * One per translation unit so each can carry its own -m flags; a
 * tier this build could not compile returns nullptr (the scalar
 * table never does).
 */
/// @{
const Table *scalarTable();
const Table *avx2Table();
const Table *avx512Table();
/// @}

/** Published active table; nullptr until first resolution. */
extern std::atomic<const Table *> g_active;

/** Cold path: resolve NC_SIMD against bestTier() and publish. */
const Table &resolveActive();

/** The kernel set every Array op runs (resolved lazily, once). */
inline const Table &
active()
{
    const Table *t = g_active.load(std::memory_order_acquire);
    return t ? *t : resolveActive();
}

/** Widest tier this host AND this build support. */
common::simd::Tier bestTier();

/** Tier of the currently active table. */
inline common::simd::Tier
activeTier()
{
    return active().tier;
}

/**
 * Pin dispatch to @p t (tests, benches). Fatal if the host/build
 * cannot run it, naming bestTier() — same contract as NC_SIMD.
 */
void forceTier(common::simd::Tier t);

/** Every runnable tier, narrowest first: {scalar, ..., bestTier()}. */
std::vector<common::simd::Tier> availableTiers();

} // namespace nc::sram::kern

#endif // NC_SRAM_KERNELS_HH

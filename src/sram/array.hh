/**
 * @file
 * The compute-capable 8KB SRAM array (paper Figure 3d / Figure 7).
 *
 * An Array is `rows` word lines by `cols` bit lines of bit cells plus the
 * compute column peripheral: per bit line, two single-ended sense amps
 * (BL senses A AND B, BLB senses NOR = ~A AND ~B when two word lines are
 * activated together), XOR derivation, full-adder sum/carry logic, a
 * carry latch, a tag latch, and a 4:1 write-back mux gated by the tag.
 *
 * Every op*() method models exactly one compute clock cycle: a sensing
 * half-cycle (read word lines at lowered voltage) and a write-back
 * half-cycle (one write word line). Conventional readRow()/writeRow()
 * model one access clock cycle each. The class counts both so callers
 * can convert to time and energy with sram::TimingParams/EnergyParams.
 *
 * Predication: ops taking a `pred` flag only commit their write-back in
 * lanes whose tag latch holds 1; other lanes keep their stored value.
 * The carry latch is updated unconditionally — sequences that use
 * predication must re-initialize carry with carrySet() (free: the preset
 * is part of the next issued micro-op's control word), exactly as the
 * multiplication walk-through in the paper does.
 *
 * Implementation: every op is a single allocation-free pass over the
 * operand rows' 64-bit words — sense, logic, and predicated write-back
 * fuse into one width-templated kernel (sram/kernels.hh) running 64,
 * 256, or 512 lanes per iteration depending on the SIMD tier chosen
 * at startup (CPUID, NC_SIMD override); carry and predicate lanes
 * stay in-register across the pass. A bit-by-bit reference
 * implementation of the same semantics remains available behind
 * setReferenceMode(true); differential tests and the perf_report
 * baseline run it to pin the fast kernels at every tier (state,
 * latches, and cycle counts must match exactly).
 *
 * Member width: an array may be built as a group of equal members side
 * by side, member j holding lanes [j * memberCols(), (j + 1) *
 * memberCols()). Every micro-op is lane-wise except opLaneShift, which
 * then moves bits only within a member, so one op on the group array
 * does what that op does on each member array — the §IV-F broadcast,
 * where every array of a slice steps through the same instruction.
 * The functional conv kernel runs a pass's arrays this way:
 * loadMember() copies each member array in, the window programs run
 * once over the group, storeMember() copies each member back.
 */

#ifndef NC_SRAM_ARRAY_HH
#define NC_SRAM_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sram/bitrow.hh"

namespace nc::sram
{

namespace ownership
{
class Registry;
}

namespace kern
{
enum class Logic2;
enum class TagFold;
}

namespace faults
{
class ArrayFaults;
}

/** One compute-capable SRAM array. Default geometry: 256 x 256 (8KB). */
class Array
{
  public:
    /**
     * @param member_cols lanes per member (0 = one member of all
     *     @p cols_ lanes). A narrower member must divide @p cols_ and
     *     be a multiple of 64, so members start on word boundaries.
     */
    explicit Array(unsigned rows_ = 256, unsigned cols_ = 256,
                   unsigned member_cols = 0);

    unsigned rows() const { return nrows; }
    unsigned cols() const { return ncols; }
    /** Lanes per member (cols() unless built as a group). */
    unsigned memberCols() const { return mcols; }
    /** Members side by side (cols() / memberCols()). */
    unsigned members() const { return ncols / mcols; }
    /** Capacity in bytes. */
    uint64_t sizeBytes() const { return uint64_t(nrows) * ncols / 8; }

    /** @name Group members (cycle-free data movement)
     * Member-side reads and writes pass through the member array's
     * row funnels, so its fault hook and debug ownership gate see
     * every row touched.
     */
    /// @{
    /**
     * Copy every row and both latches of @p src, an array of
     * memberCols() lanes and rows() rows, into member @p j.
     */
    void loadMember(unsigned j, const Array &src);
    /** Copy rows [row0, row0 + count) of @p src into member @p j. */
    void loadMemberRows(unsigned j, const Array &src, unsigned row0,
                        unsigned count);
    /** Copy member @p j's rows and both latches into @p dst. */
    void storeMember(unsigned j, Array &dst) const;
    /// @}

    /** @name Conventional SRAM mode (1 access cycle each) */
    /// @{
    BitRow readRow(unsigned r);
    void writeRow(unsigned r, const BitRow &row);
    /// @}

    /** @name Zero-cost debug access (test instrumentation, no cycles) */
    /// @{
    const BitRow &rowRef(unsigned r) const;
    /** Mutable row access for cycle-free data movement (layout.cc). */
    BitRow &rowMut(unsigned r);
    bool peek(unsigned r, unsigned lane) const;
    void poke(unsigned r, unsigned lane, bool v);
    /// @}

    /** @name Compute micro-ops (1 compute cycle each) */
    /// @{
    /** dst <= A AND B (BL sense). */
    void opAnd(unsigned ra, unsigned rb, unsigned dst, bool pred = false);
    /** dst <= A NOR B (BLB sense). */
    void opNor(unsigned ra, unsigned rb, unsigned dst, bool pred = false);
    /** dst <= A OR B (inverted BLB). */
    void opOr(unsigned ra, unsigned rb, unsigned dst, bool pred = false);
    /** dst <= A XOR B (NOR of the two sensed values). */
    void opXor(unsigned ra, unsigned rb, unsigned dst, bool pred = false);
    /** dst <= A XNOR B. */
    void opXnor(unsigned ra, unsigned rb, unsigned dst, bool pred = false);

    /**
     * Full-adder cycle: dst <= A ^ B ^ carry; carry latch <= majority.
     * This is the workhorse of bit-serial arithmetic (paper Figure 4).
     */
    void opAdd(unsigned ra, unsigned rb, unsigned dst, bool pred = false);

    /** dst <= src (single-row activation, write-back of BL). */
    void opCopy(unsigned src, unsigned dst, bool pred = false);
    /** dst <= NOT src (write-back of BLB). */
    void opCopyInv(unsigned src, unsigned dst, bool pred = false);
    /** dst <= 0 in selected lanes (bit-line driver forced low). */
    void opZero(unsigned dst, bool pred = false);
    /** dst <= 1 in selected lanes. */
    void opOnes(unsigned dst, bool pred = false);

    /** Tag latch <= row / NOT row / tag AND row / tag AND NOT row. */
    void opLoadTag(unsigned r);
    void opLoadTagInv(unsigned r);
    void opTagAnd(unsigned r);
    void opTagAndInv(unsigned r);
    /** Tag latch <= tag OR row (overflow detection folds). */
    void opTagOr(unsigned r);
    /**
     * Tag latch <= tag AND (A XNOR B): the equality fold used by
     * Compute Cache's comparison/search modes — the XNOR is already
     * available at the peripheral as BL OR BLB.
     */
    void opTagAndXnor(unsigned ra, unsigned rb);
    /**
     * Tag latch <= carry latch, optionally inverted (captures the final
     * carry of a subtraction as a lane-wise a >= b / a < b mask).
     */
    void opLoadTagFromCarry(bool invert = false);
    /** dst <= tag latch. */
    void opStoreTag(unsigned dst, bool pred = false);
    /** dst <= carry latch (finishes an addition, paper "n+1"th cycle). */
    void opStoreCarry(unsigned dst, bool pred = false);

    /**
     * dst <= src moved down @p shift bit lines (lane i takes lane
     * i+shift; vacated lanes read 0). Models word-line moves through
     * the column mux / sense-amp cycling used by reductions (paper
     * Figure 5 and [Cache Automaton]); costs @p cycles compute cycles
     * (default 2: one sense phase, one drive phase). In a group array
     * the move is per member: lane i takes lane i+shift only when
     * both lie in the same member, so no bit crosses a member
     * boundary.
     */
    void opLaneShift(unsigned src, unsigned dst, unsigned shift,
                     unsigned cycles = 2);
    /// @}

    /**
     * Preset the carry latch in every lane. Free of cycle cost: the
     * preset travels with the control word of the next issued op.
     */
    void carrySet(bool v);
    /** Preset the tag latch in every lane (also free). */
    void tagSet(bool v);

    const BitRow &carry() const { return carryLatch; }
    const BitRow &tag() const { return tagLatch; }

    /** @name Cycle accounting */
    /// @{
    uint64_t computeCycles() const { return nComputeCycles; }
    uint64_t accessCycles() const { return nAccessCycles; }
    void resetCycles();
    /**
     * Merge cycle counts measured elsewhere into this array's
     * counters. The parallel executor runs independent work items on
     * task-private arrays and reduces their counts into the modeled
     * array after the join, so aggregate cycle/energy statistics are
     * identical to a serial run (sums are order-independent).
     */
    void chargeCycles(uint64_t compute, uint64_t access);
    /// @}

    /**
     * Switch to the bit-by-bit reference implementation of every
     * micro-op (identical architectural semantics and cycle counts,
     * roughly an order of magnitude slower). Differential tests
     * compare the two paths; bench/perf_report uses the reference
     * path as its scalar baseline.
     */
    void setReferenceMode(bool on) { refMode = on; }
    bool referenceMode() const { return refMode; }

    /**
     * Attach the array-ownership race detector: every subsequent
     * state access verifies the calling task owns flat array
     * @p flat_index in @p reg (see sram/ownership.hh). ComputeCache
     * tags its arrays at materialization in debug builds; standalone
     * arrays (unit tests, task-private pooling scratch) stay
     * untagged and unchecked. No-op under NDEBUG.
     */
    void setOwnership(ownership::Registry *reg, uint64_t flat_index);

    /**
     * Attach a fault-injection record (sram/faults.hh): every
     * subsequent touch of a word line re-applies the record's
     * defects to it before the access proceeds. Unlike the ownership
     * detector this is live in release builds — faults must be
     * injectable under the optimized kernels — but an array without
     * a record (the configured-but-ideal case) pays exactly one
     * pointer test per touched row, and nothing at all reaches here
     * when no registry is configured.
     */
    void setFaults(faults::ArrayFaults *rec) { flt = rec; }
    const faults::ArrayFaults *faultRecord() const { return flt; }

  private:
    /** Sense phase of a dual-row activation (reference path). */
    struct Sensed
    {
        BitRow bl;  ///< A AND B
        BitRow blb; ///< ~A AND ~B
    };
    Sensed sense(unsigned ra, unsigned rb) const;

    /** Commit @p value to @p dst honouring predication (reference). */
    void writeBack(unsigned dst, const BitRow &value, bool pred);

    /** @name Reference-mode op bodies
     * Kept out of line (noinline in array.cc): their BitRow
     * temporaries otherwise inflate the hot ops' stack frames and
     * prologues, which costs more than the fused kernel call itself
     * on the default 4-word geometry.
     */
    /// @{
    void refFused2(unsigned ra, unsigned rb, unsigned dst, bool pred,
                   kern::Logic2 op);
    void refAdd(unsigned ra, unsigned rb, unsigned dst, bool pred);
    void refCopy(unsigned src, unsigned dst, bool pred, bool invert);
    /// @}

    /**
     * Fused sense + logic + predicated write-back: one pass over the
     * operand words through the active SIMD kernel table
     * (sram/kernels.hh). @p op selects how the two sensed rows
     * combine into the value to commit.
     */
    void fused2(unsigned ra, unsigned rb, unsigned dst, bool pred,
                kern::Logic2 op);

    /** Single-source variant (optionally inverting the sense). */
    void fused1(unsigned src, unsigned dst, bool pred, bool invert);

    /** @name Cold bodies of the fused ops
     * One predicted-not-taken branch in each hot op funnels every
     * non-steady-state case here (first-op dispatch resolution,
     * fault re-application, programming-error asserts), keeping the
     * hot bodies frameless so the kernel is a sibling call.
     */
    /// @{
    void fused2Slow(unsigned ra, unsigned rb, unsigned dst, bool pred,
                    kern::Logic2 op);
    void fused1Slow(unsigned src, unsigned dst, bool pred,
                    bool invert);
    void opAddSlow(unsigned ra, unsigned rb, unsigned dst, bool pred);
    /// @}

    /** Commit the constant word @p v to every word of @p dst. */
    void fusedImm(unsigned dst, bool pred, uint64_t v);

    /** Predicated write-back of a latch row (tag/carry) into @p dst. */
    void fusedLatchStore(const BitRow &src, unsigned dst, bool pred);

    /** tag <= fold(tag, row r), word-wise (the tag-fold family). */
    void fusedTag(unsigned r, kern::TagFold op);

    /** dst latch <= src (row or latch), optionally inverted. */
    static void loadLatch(BitRow &dst, const BitRow &src, bool invert);

    void checkRow(unsigned r) const;
    /**
     * checkRow for the row set of one fused op, folded into a single
     * fault-hook branch (kNoTouch entries are skipped). The hot ops
     * touch two or three rows each; three separate checkRow calls
     * triple the pointer tests on the ideal-array fast path.
     */
    static constexpr unsigned kNoTouch = ~0u;
    void touchRows(unsigned ra, unsigned rb = kNoTouch,
                   unsigned dst = kNoTouch) const;
    /** Ownership-detector gate on every state access (debug only). */
    void checkOwner() const;
    /** Cold path of the fault hook (out of line; checkRow branches). */
    void applyFaults(unsigned r) const;
    /** Word offset of member @p j after checking @p other's shape. */
    size_t memberWord(unsigned j, const Array &other) const;

    unsigned nrows;
    unsigned ncols;
    unsigned mcols; ///< lanes per member
    /**
     * Row geometry, cached once: every row (and both latches) of
     * this array shares the same word count and tail mask, and the
     * fused ops are hot enough that re-deriving them per op from the
     * BitRow costs measurable time.
     */
    size_t nwords;
    uint64_t tmask;
    std::vector<BitRow> cells;
    BitRow carryLatch;
    BitRow tagLatch;
    uint64_t nComputeCycles = 0;
    uint64_t nAccessCycles = 0;
    bool refMode = false;
    ownership::Registry *ownReg = nullptr; ///< null: unchecked
    uint64_t ownIdx = 0;                   ///< flat index in ownReg
    faults::ArrayFaults *flt = nullptr;    ///< null: ideal array
};

} // namespace nc::sram

#endif // NC_SRAM_ARRAY_HH

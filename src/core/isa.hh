/**
 * @file
 * The in-cache instruction set (paper §IV-F).
 *
 * "Neural Cache requires supporting a few new instructions: in-cache
 * addition, multiplication, reduction, and moves. Since, at any given
 * time only one layer in the network is being operated on, all
 * compute arrays execute the same in-cache compute instruction."
 *
 * An Instruction names an ALU macro-op and its operand slices; the
 * intra-slice address bus carries it to every array of a pass, where
 * the per-bank FSM (controller.hh) expands it into the bit-serial
 * micro-op sequence. Because operands are slice-relative and every
 * array holds the same layout, one encoding drives thousands of
 * arrays in lock-step.
 */

#ifndef NC_CORE_ISA_HH
#define NC_CORE_ISA_HH

#include <cstdint>
#include <string>

#include "bitserial/layout.hh"

namespace nc::core
{

/**
 * Macro-opcodes the bank FSM can expand: the §IV-F moves, addition,
 * multiplication and reduction the kernels emit (conv windows,
 * eltwise merges, max-pool folds), plus the two tag producers that
 * predicated write-back needs. Latch effects matter to program
 * legality (program_verify.hh polices them statically): Add leaves
 * the lane carry latches holding the final carry-out; Search and
 * LoadTag define the tag latches; Multiply, Mac and MaxInto run
 * their own internal carry/compare sequences and clobber both latch
 * sets on the way through; a multi-step ReduceSum clobbers the carry
 * latches and Saturate the tag latches. Copy, Zero and ShiftDown
 * leave both untouched.
 */
enum class Opcode
{
    Copy,      ///< out <= a (honors pred)
    Zero,      ///< out <= 0 (honors pred)
    Add,       ///< out <= a + b (honors pred/carryIn; defines carry)
    Multiply,  ///< out <= a * b (out = a.bits + b.bits)
    Mac,       ///< out += a * b through scratch (Fig 10 flow)
    ReduceSum, ///< lane-tree sum over imm lanes (a live in low bits)
    MaxInto,   ///< a <= max(a, b) (scratch: compare band)
    ShiftDown, ///< a >>= imm
    Saturate,  ///< a <= min(a, 2^imm - 1) (the §IV-D clamp)
    Search,    ///< tag <= (a == key)
    LoadTag,   ///< tag <= row a.base
};

const char *opcodeName(Opcode op);

/** One broadcast instruction. */
struct Instruction
{
    Opcode op = Opcode::Zero;
    bitserial::VecSlice a;       ///< first operand / in-place target
    bitserial::VecSlice b;       ///< second operand
    bitserial::VecSlice out;     ///< destination
    bitserial::VecSlice scratch; ///< product / compare / tree band
    unsigned imm = 0;            ///< lanes / shift / clamp width
    unsigned imm2 = 0;           ///< ReduceSum live width w0
    uint64_t key = 0;            ///< Search key
    unsigned zeroRow = bitserial::kNoRow;
    bool pred = false;           ///< tag-predicated write-back
    bool carryIn = false;        ///< Add consumes the carry latches

    /** @name Assembly-style factories */
    /// @{
    static Instruction copy(bitserial::VecSlice a,
                            bitserial::VecSlice out,
                            bool pred = false);
    static Instruction zero(bitserial::VecSlice out);
    static Instruction add(bitserial::VecSlice a, bitserial::VecSlice b,
                           bitserial::VecSlice out,
                           unsigned zero_row = bitserial::kNoRow,
                           bool carry_in = false);
    static Instruction multiply(bitserial::VecSlice a,
                                bitserial::VecSlice b,
                                bitserial::VecSlice out);
    static Instruction mac(bitserial::VecSlice a, bitserial::VecSlice b,
                           bitserial::VecSlice acc,
                           bitserial::VecSlice scratch,
                           unsigned zero_row);
    static Instruction reduceSum(bitserial::VecSlice acc, unsigned w0,
                                 unsigned lanes,
                                 bitserial::VecSlice scratch);
    static Instruction search(bitserial::VecSlice a, uint64_t key);
    static Instruction shiftDown(bitserial::VecSlice a, unsigned k);
    static Instruction saturate(bitserial::VecSlice a,
                                unsigned out_bits);
    /// @}
};

} // namespace nc::core

#endif // NC_CORE_ISA_HH

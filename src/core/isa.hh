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
 * Macro-opcodes the bank FSM can expand. Latch effects matter to
 * program legality (program_verify.hh polices them statically):
 * Add/Sub leave the lane carry latches holding the final carry-out;
 * Search and LoadTag define the tag latches; and every multi-step op
 * that runs its own internal compare/carry sequence (Multiply, Mac,
 * MaxInto, MinInto, Relu, Saturate, Divide, BatchNorm, ReduceMax)
 * clobbers both latch sets on the way through.
 */
enum class Opcode
{
    Copy,      ///< out <= a (honors pred)
    CopyInv,   ///< out <= ~a (honors pred)
    Zero,      ///< out <= 0 (honors pred)
    Add,       ///< out <= a + b (honors pred/carryIn; defines carry)
    Sub,       ///< out <= a - b (scratch: b.bits; honors pred)
    Multiply,  ///< out <= a * b (out = a.bits + b.bits)
    Mac,       ///< out += a * b through scratch (Fig 10 flow)
    ReduceSum, ///< lane-tree sum over imm lanes (a live in low bits)
    ReduceMax, ///< lane-tree max over imm lanes
    MaxInto,   ///< a <= max(a, b) (scratch: compare band)
    MinInto,   ///< a <= min(a, b) (scratch: compare band)
    Relu,      ///< a <= max(a, 0), two's complement
    ShiftUp,   ///< a <<= imm
    ShiftDown, ///< a >>= imm
    Saturate,  ///< a <= min(a, 2^imm - 1) (the §IV-D clamp)
    Divide,    ///< out <= a / b (scratch, scratch2, c as dwork)
    BatchNorm, ///< a <= ((a * b) >> imm) + c (paper §IV-D)
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
    bitserial::VecSlice c;       ///< BatchNorm beta / Divide dwork
    bitserial::VecSlice out;     ///< destination
    bitserial::VecSlice scratch; ///< primary scratch band
    bitserial::VecSlice scratch2; ///< secondary scratch band
    unsigned imm = 0;            ///< lanes / shift amount
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
    static Instruction sub(bitserial::VecSlice a, bitserial::VecSlice b,
                           bitserial::VecSlice out,
                           bitserial::VecSlice scratch);
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
    static Instruction relu(bitserial::VecSlice a);
    static Instruction search(bitserial::VecSlice a, uint64_t key);
    static Instruction shiftDown(bitserial::VecSlice a, unsigned k);
    static Instruction saturate(bitserial::VecSlice a,
                                unsigned out_bits);
    /// @}
};

} // namespace nc::core

#endif // NC_CORE_ISA_HH

/**
 * @file
 * The per-bank controller (paper §IV-F).
 *
 * The intra-slice address bus carries one compute instruction to
 * every bank; a small per-bank FSM (204 um^2) expands it into word
 * line / sense / write-back control sequences. runProgram() models
 * that FSM on one array. The expansion of a multiply, MAC or sum
 * reduction may run as one fused pass over the array's words
 * (bitserial/alu.hh) — same rows, latches and cycle charge as the
 * micro-op sequence; the instruction stream and the cycle check
 * below are unchanged. runProgram() is the only way conv windows, eltwise
 * merges and max-pool folds touch an array: the functional kernels
 * run the very streams the static verifier (program_verify.hh)
 * proves. A conv pass hands it a group array whose members are the
 * pass's arrays side by side, so one call drives them all in
 * lockstep, the identical stream reaching every array.
 *
 * Each run checks itself against the verifier: the cycles an
 * instruction's expansion charged must equal the static cycle model
 * (verify::instructionCycles) for that instruction, or the run panics
 * naming the opcode and instruction index. Together with the
 * compile-time proof that the static sum equals the CostModel's
 * charge, that pins the functional cycle counters to the analytic
 * model. A fused pass charges from the same formulas the static
 * model prices, so this check cannot catch one that miscounts: the
 * differential suite (tests/bitserial/test_fused_passes.cc) ties
 * each pass's charge to the micro-op count.
 */

#ifndef NC_CORE_CONTROLLER_HH
#define NC_CORE_CONTROLLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bitserial/cost.hh"
#include "core/isa.hh"
#include "sram/array.hh"

namespace nc::core
{

/**
 * Expand instructions [first, last) of @p program on @p arr; returns
 * the compute cycles they charged. Zero-width operands and an empty
 * range are rejected by name before the array sees anything. The FSM
 * expands at the ALU's native timing (bitserial::AluConfig{});
 * @p model is the static cycle model each instruction's charge must
 * match, so a model that misprices an opcode dies on the first
 * instruction it gets wrong.
 */
uint64_t runProgram(sram::Array &arr,
                    const std::vector<Instruction> &program,
                    size_t first, size_t last,
                    const bitserial::AluConfig &model = {});

/** Run the whole of @p program on @p arr. */
inline uint64_t
runProgram(sram::Array &arr, const std::vector<Instruction> &program)
{
    return runProgram(arr, program, 0, program.size());
}

} // namespace nc::core

#endif // NC_CORE_CONTROLLER_HH

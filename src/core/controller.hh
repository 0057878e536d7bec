/**
 * @file
 * The per-bank controller (paper §IV-F).
 *
 * The intra-slice address bus carries one compute instruction to
 * every bank; a small per-bank FSM (204 um^2) expands it into word
 * line / sense / write-back control sequences. runProgram() models
 * that FSM on one array, and it is the only way conv windows, eltwise
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
 * model.
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

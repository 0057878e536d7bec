#include "core/controller.hh"

#include "bitserial/alu.hh"
#include "bitserial/extensions.hh"
#include "common/logging.hh"
#include "core/program_verify.hh"

namespace nc::core
{

namespace bs = bitserial;

namespace
{

void
requireWidth(size_t idx, const Instruction &inst, const bs::VecSlice &s,
             const char *which)
{
    if (s.bits == 0)
        nc_fatal("instruction %zu (%s) rejected: zero-width %s operand",
                 idx, opcodeName(inst.op), which);
}

/**
 * Operand sanity at the FSM boundary: a zero-width slice would make
 * the bank FSM expand zero micro-ops and silently compute nothing, so
 * it is rejected by name before the array sees the instruction.
 */
void
validateOperands(size_t idx, const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Copy:
        requireWidth(idx, inst, inst.a, "a");
        requireWidth(idx, inst, inst.out, "out");
        break;
      case Opcode::Zero:
        requireWidth(idx, inst, inst.out, "out");
        break;
      case Opcode::Add:
      case Opcode::Multiply:
      case Opcode::Mac:
        requireWidth(idx, inst, inst.a, "a");
        requireWidth(idx, inst, inst.b, "b");
        requireWidth(idx, inst, inst.out, "out");
        break;
      case Opcode::ReduceSum:
      case Opcode::ShiftDown:
      case Opcode::Saturate:
      case Opcode::Search:
        requireWidth(idx, inst, inst.a, "a");
        break;
      case Opcode::MaxInto:
        requireWidth(idx, inst, inst.a, "a");
        requireWidth(idx, inst, inst.b, "b");
        break;
      case Opcode::LoadTag:
        break; // one raw row, no width to check
    }
}

/** Expand @p inst on @p arr (the per-bank FSM). */
void
execute(sram::Array &arr, const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::Copy:
        bs::copy(arr, inst.a, inst.out, inst.pred);
        return;
      case Opcode::Zero:
        bs::zero(arr, inst.out, inst.pred);
        return;
      case Opcode::Add:
        bs::add(arr, inst.a, inst.b, inst.out, inst.zeroRow, inst.pred,
                inst.carryIn);
        return;
      case Opcode::Multiply:
        bs::multiply(arr, inst.a, inst.b, inst.out);
        return;
      case Opcode::Mac:
        bs::macScratch(arr, inst.a, inst.b, inst.out, inst.scratch,
                       inst.zeroRow);
        return;
      case Opcode::ReduceSum:
        bs::reduceSum(arr, inst.a, inst.imm2, inst.imm, inst.scratch);
        return;
      case Opcode::MaxInto:
        bs::maxInto(arr, inst.a, inst.b, inst.scratch);
        return;
      case Opcode::ShiftDown:
        bs::shiftDown(arr, inst.a, inst.imm);
        return;
      case Opcode::Saturate:
        bs::saturate(arr, inst.a, inst.imm);
        return;
      case Opcode::Search:
        bs::searchKey(arr, inst.a, inst.key);
        return;
      case Opcode::LoadTag:
        arr.opLoadTag(inst.a.base);
        return;
    }
    nc_panic("undecodable opcode %d", static_cast<int>(inst.op));
}

} // namespace

uint64_t
runProgram(sram::Array &arr, const std::vector<Instruction> &program,
           size_t first, size_t last, const bitserial::AluConfig &model)
{
    if (first >= last)
        nc_fatal("runProgram rejected: empty program range [%zu,%zu) "
                 "of a %zu-instruction program (nothing to execute)",
                 first, last, program.size());
    nc_assert(last <= program.size(),
              "runProgram: range [%zu,%zu) overruns a %zu-instruction "
              "program", first, last, program.size());

    uint64_t total = 0;
    for (size_t i = first; i < last; ++i) {
        const Instruction &inst = program[i];
        validateOperands(i, inst);
        const uint64_t before = arr.computeCycles();
        execute(arr, inst);
        const uint64_t charged = arr.computeCycles() - before;
        // The runtime half of the cycle cross-check: what the array
        // was charged must be what the verifier proved statically.
        const uint64_t expect = verify::instructionCycles(inst, model);
        if (charged != expect)
            nc_panic("cycle divergence at instruction %zu (%s): the "
                     "expansion charged %llu cycles, the static model "
                     "prices %llu",
                     i, opcodeName(inst.op),
                     static_cast<unsigned long long>(charged),
                     static_cast<unsigned long long>(expect));
        total += charged;
    }
    return total;
}

} // namespace nc::core

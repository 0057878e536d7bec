#include "core/isa.hh"

namespace nc::core
{

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Copy:
        return "copy";
      case Opcode::Zero:
        return "zero";
      case Opcode::Add:
        return "add";
      case Opcode::Multiply:
        return "multiply";
      case Opcode::Mac:
        return "mac";
      case Opcode::ReduceSum:
        return "reducesum";
      case Opcode::MaxInto:
        return "maxinto";
      case Opcode::ShiftDown:
        return "shiftdown";
      case Opcode::Saturate:
        return "saturate";
      case Opcode::Search:
        return "search";
      case Opcode::LoadTag:
        return "loadtag";
    }
    return "?";
}

Instruction
Instruction::copy(bitserial::VecSlice a, bitserial::VecSlice out,
                  bool pred)
{
    Instruction i;
    i.op = Opcode::Copy;
    i.a = a;
    i.out = out;
    i.pred = pred;
    return i;
}

Instruction
Instruction::zero(bitserial::VecSlice out)
{
    Instruction i;
    i.op = Opcode::Zero;
    i.out = out;
    return i;
}

Instruction
Instruction::add(bitserial::VecSlice a, bitserial::VecSlice b,
                 bitserial::VecSlice out, unsigned zero_row,
                 bool carry_in)
{
    Instruction i;
    i.op = Opcode::Add;
    i.a = a;
    i.b = b;
    i.out = out;
    i.zeroRow = zero_row;
    i.carryIn = carry_in;
    return i;
}

Instruction
Instruction::multiply(bitserial::VecSlice a, bitserial::VecSlice b,
                      bitserial::VecSlice out)
{
    Instruction i;
    i.op = Opcode::Multiply;
    i.a = a;
    i.b = b;
    i.out = out;
    return i;
}

Instruction
Instruction::mac(bitserial::VecSlice a, bitserial::VecSlice b,
                 bitserial::VecSlice acc, bitserial::VecSlice scratch,
                 unsigned zero_row)
{
    Instruction i;
    i.op = Opcode::Mac;
    i.a = a;
    i.b = b;
    i.out = acc;
    i.scratch = scratch;
    i.zeroRow = zero_row;
    return i;
}

Instruction
Instruction::reduceSum(bitserial::VecSlice acc, unsigned w0,
                       unsigned lanes, bitserial::VecSlice scratch)
{
    Instruction i;
    i.op = Opcode::ReduceSum;
    i.a = acc;
    i.scratch = scratch;
    i.imm = lanes;
    i.imm2 = w0;
    return i;
}

Instruction
Instruction::search(bitserial::VecSlice a, uint64_t key)
{
    Instruction i;
    i.op = Opcode::Search;
    i.a = a;
    i.key = key;
    return i;
}

Instruction
Instruction::shiftDown(bitserial::VecSlice a, unsigned k)
{
    Instruction i;
    i.op = Opcode::ShiftDown;
    i.a = a;
    i.imm = k;
    return i;
}

Instruction
Instruction::saturate(bitserial::VecSlice a, unsigned out_bits)
{
    Instruction i;
    i.op = Opcode::Saturate;
    i.a = a;
    i.imm = out_bits;
    return i;
}

} // namespace nc::core

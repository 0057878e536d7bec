#include "core/program_verify.hh"

#include <algorithm>
#include <chrono>

#include "bitserial/extensions.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "core/compiled_model.hh"
#include "core/cost_model.hh"
#include "core/report.hh"
#include "dnn/layers.hh"

namespace nc::core::verify
{

namespace bs = bitserial;

namespace
{

/**
 * The abstract machine one program runs on: a per-row defined bitmap
 * (seeded from the prologue defs and the guard row), the carry and
 * tag latch states, and the running cycle sum. Every check mirrors
 * an nc_assert the ALU would hit at runtime — plus the dataflow and
 * latch rules no runtime assert can see — as a named compile-time
 * violation.
 */
class Interpreter
{
  public:
    explicit Interpreter(const ProgramContext &ctx_) : ctx(ctx_)
    {
        if (ctx.arrayRows == 0)
            nc_fatal("program verify '%s': zero-row array geometry",
                     ctx.layer.c_str());
        defined.assign(ctx.arrayRows, false);
        // The guard row is the constant-zero line: always readable
        // (uneven adds sense it), never writable.
        if (ctx.guardRow != bs::kNoRow) {
            if (ctx.guardRow >= ctx.arrayRows)
                nc_fatal("program verify '%s': guard row %u outside "
                         "the %u-row array", ctx.layer.c_str(),
                         ctx.guardRow, ctx.arrayRows);
            defined[ctx.guardRow] = true;
        }
        for (const bs::VecSlice &s : ctx.initialDefs) {
            boundsOrDie(s, "prologue def");
            for (unsigned j = 0; j < s.bits; ++j)
                defined[s.row(j)] = true;
        }
    }

    ProgramStats
    run(const std::vector<Instruction> &program)
    {
        stats.instructions = program.size();
        stats.maxLiveRows = liveRows();
        for (idx = 0; idx < program.size(); ++idx) {
            step(program[idx]);
            stats.maxLiveRows =
                std::max(stats.maxLiveRows, liveRows());
        }
        return stats;
    }

  private:
    enum class Latch { Clobbered, Valid };

    /** "program verify '<layer>': inst <idx> (<opcode>)" */
    std::string
    where() const
    {
        return detail::format("program verify '%s': inst %zu (%s)",
                              ctx.layer.c_str(), idx,
                              opcodeName(cur->op));
    }

    unsigned
    liveRows() const
    {
        return static_cast<unsigned>(
            std::count(defined.begin(), defined.end(), true));
    }

    /** Bounds half of check class 1 (no interpreter state needed). */
    void
    boundsOrDie(const bs::VecSlice &s, const char *which) const
    {
        const char *layer = ctx.layer.c_str();
        if (s.bits == 0) {
            if (cur)
                nc_fatal("%s: zero-width %s operand", where().c_str(),
                         which);
            nc_fatal("program verify '%s': zero-width %s slice",
                     layer, which);
        }
        if (s.base == bs::kNoRow || s.base + s.bits > ctx.arrayRows ||
            s.base + s.bits < s.base) {
            if (cur)
                nc_fatal("%s: %s slice [%u,+%u) outside the %u-row "
                         "array", where().c_str(), which, s.base,
                         s.bits, ctx.arrayRows);
            nc_fatal("program verify '%s': %s slice [%u,+%u) outside "
                     "the %u-row array", layer, which, s.base, s.bits,
                     ctx.arrayRows);
        }
    }

    /** In-place aliasing is only safe when base rows line up. */
    void
    aliasOrDie(const bs::VecSlice &out, const bs::VecSlice &in,
               const char *which) const
    {
        if (out.base != in.base && out.overlaps(in))
            nc_fatal("%s: shifted overlap between %s [%u,+%u) and "
                     "destination [%u,+%u)", where().c_str(), which,
                     in.base, in.bits, out.base, out.bits);
    }

    /** Check class 2: every read row must carry a def. */
    void
    readOrDie(const bs::VecSlice &s, const char *which) const
    {
        for (unsigned j = 0; j < s.bits; ++j) {
            if (!defined[s.row(j)])
                nc_fatal("%s: %s reads row %u (bit %u of [%u,+%u)) "
                         "before any def", where().c_str(), which,
                         s.row(j), j, s.base, s.bits);
        }
    }

    void
    readRowOrDie(unsigned row, const char *which) const
    {
        if (row >= ctx.arrayRows)
            nc_fatal("%s: %s row %u outside the %u-row array",
                     where().c_str(), which, row, ctx.arrayRows);
        if (!defined[row])
            nc_fatal("%s: %s reads row %u before any def",
                     where().c_str(), which, row);
    }

    /** Uneven-width ops sense the zero row; it must be real. */
    void
    zeroRowOrDie(unsigned zrow) const
    {
        if (zrow == bs::kNoRow)
            nc_fatal("%s: uneven operand widths require a zero row",
                     where().c_str());
        readRowOrDie(zrow, "zero-row pad");
    }

    /**
     * Check class 3 + the write half of class 2: the guard row is
     * never a destination, and a non-predicated write defines its
     * rows (a predicated write leaves lanes whose tag is clear
     * untouched, so it cannot introduce a def).
     */
    void
    write(const bs::VecSlice &s, const char *which, bool pred = false)
    {
        for (unsigned j = 0; j < s.bits; ++j) {
            const unsigned row = s.row(j);
            if (row == ctx.guardRow)
                nc_fatal("%s: %s slice [%u,+%u) writes the reserved "
                         "guard row %u", where().c_str(), which,
                         s.base, s.bits, ctx.guardRow);
            if (!pred && !defined[row]) {
                defined[row] = true;
                ++stats.defs;
            }
        }
    }

    /** Check class 4: latch consumers need a live producer. */
    void
    tagValidOrDie() const
    {
        if (tag != Latch::Valid)
            nc_fatal("%s: predicated write-back consumes the tag "
                     "latches, but no live Search/LoadTag precedes it "
                     "(tag clobbered or never defined)",
                     where().c_str());
    }

    void
    carryValidOrDie() const
    {
        if (carry != Latch::Valid)
            nc_fatal("%s: carry-in consumes the carry latches, but no "
                     "live Add/Sub precedes it (carry clobbered or "
                     "never defined)", where().c_str());
    }

    void step(const Instruction &inst);

    const ProgramContext &ctx;
    ProgramStats stats;
    std::vector<bool> defined;
    Latch carry = Latch::Clobbered;
    Latch tag = Latch::Clobbered;
    size_t idx = 0;
    const Instruction *cur = nullptr;
};

void
Interpreter::step(const Instruction &inst)
{
    cur = &inst;

    // The pred and carryIn flags only mean something to the ops whose
    // micro-sequences thread them through; anywhere else they are a
    // malformed encoding, not a silent no-op.
    const bool predicable =
        inst.op == Opcode::Copy || inst.op == Opcode::CopyInv ||
        inst.op == Opcode::Zero || inst.op == Opcode::Add ||
        inst.op == Opcode::Sub;
    if (inst.pred && !predicable)
        nc_fatal("%s: pred set on an opcode with no predicated "
                 "write-back", where().c_str());
    if (inst.pred)
        tagValidOrDie();
    if (inst.carryIn && inst.op != Opcode::Add)
        nc_fatal("%s: carryIn set on an opcode that cannot consume "
                 "the carry latches", where().c_str());

    switch (inst.op) {
      case Opcode::Copy:
      case Opcode::CopyInv: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.out, "out");
        if (inst.out.bits < inst.a.bits)
            nc_fatal("%s: copy into narrower slice (out %u < a %u "
                     "bits)", where().c_str(), inst.out.bits,
                     inst.a.bits);
        aliasOrDie(inst.out, inst.a, "a");
        readOrDie(inst.a, "a");
        // Only the low a.bits rows of the destination are driven.
        write(bs::VecSlice{inst.out.base, inst.a.bits}, "out",
              inst.pred);
        break;
      }
      case Opcode::Zero: {
        boundsOrDie(inst.out, "out");
        write(inst.out, "out", inst.pred);
        break;
      }
      case Opcode::Add: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.b, "b");
        boundsOrDie(inst.out, "out");
        const unsigned n = std::max(inst.a.bits, inst.b.bits);
        if (inst.out.bits != n && inst.out.bits != n + 1)
            nc_fatal("%s: add output %u bits for %u-bit operands",
                     where().c_str(), inst.out.bits, n);
        if (inst.a.bits != inst.b.bits)
            zeroRowOrDie(inst.zeroRow);
        aliasOrDie(inst.out, inst.a, "a");
        aliasOrDie(inst.out, inst.b, "b");
        if (inst.carryIn)
            carryValidOrDie();
        readOrDie(inst.a, "a");
        readOrDie(inst.b, "b");
        write(inst.out, "out", inst.pred);
        carry = Latch::Valid; // holds the final carry-out
        break;
      }
      case Opcode::Sub: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.b, "b");
        boundsOrDie(inst.out, "out");
        boundsOrDie(inst.scratch, "scratch");
        if (inst.a.bits != inst.b.bits)
            nc_fatal("%s: sub requires equal widths (a %u, b %u)",
                     where().c_str(), inst.a.bits, inst.b.bits);
        if (inst.scratch.bits < inst.b.bits)
            nc_fatal("%s: sub scratch [%u,+%u) narrower than b (%u "
                     "bits)", where().c_str(), inst.scratch.base,
                     inst.scratch.bits, inst.b.bits);
        const unsigned n = inst.a.bits;
        if (inst.out.bits != n && inst.out.bits != n + 1)
            nc_fatal("%s: sub output %u bits for %u-bit operands",
                     where().c_str(), inst.out.bits, n);
        const bs::VecSlice inv = inst.scratch.slice(0, inst.b.bits);
        aliasOrDie(inv, inst.b, "b");
        aliasOrDie(inst.out, inst.a, "a");
        aliasOrDie(inst.out, inv, "scratch");
        readOrDie(inst.a, "a");
        readOrDie(inst.b, "b");
        write(inv, "scratch", inst.pred);
        write(inst.out, "out", inst.pred);
        carry = Latch::Valid;
        break;
      }
      case Opcode::Multiply: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.b, "b");
        boundsOrDie(inst.out, "out");
        if (inst.out.bits != inst.a.bits + inst.b.bits)
            nc_fatal("%s: product must be %u bits, got %u",
                     where().c_str(), inst.a.bits + inst.b.bits,
                     inst.out.bits);
        if (inst.out.overlaps(inst.a) || inst.out.overlaps(inst.b))
            nc_fatal("%s: product [%u,+%u) overlaps an operand",
                     where().c_str(), inst.out.base, inst.out.bits);
        readOrDie(inst.a, "a");
        readOrDie(inst.b, "b");
        write(inst.out, "out"); // zeroed first: a full def
        carry = tag = Latch::Clobbered;
        break;
      }
      case Opcode::Mac: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.b, "b");
        boundsOrDie(inst.out, "acc");
        boundsOrDie(inst.scratch, "scratch");
        if (inst.scratch.bits != inst.a.bits + inst.b.bits)
            nc_fatal("%s: scratch [%u,+%u) must fit the %u-bit "
                     "product", where().c_str(), inst.scratch.base,
                     inst.scratch.bits, inst.a.bits + inst.b.bits);
        if (inst.out.bits < inst.scratch.bits)
            nc_fatal("%s: accumulator [%u,+%u) narrower than the "
                     "product", where().c_str(), inst.out.base,
                     inst.out.bits);
        if (inst.scratch.overlaps(inst.a) ||
            inst.scratch.overlaps(inst.b))
            nc_fatal("%s: product scratch [%u,+%u) overlaps an "
                     "operand", where().c_str(), inst.scratch.base,
                     inst.scratch.bits);
        if (inst.scratch.bits != inst.out.bits)
            zeroRowOrDie(inst.zeroRow); // uneven scratch+acc add
        aliasOrDie(inst.out, inst.scratch, "scratch");
        readOrDie(inst.a, "a");
        readOrDie(inst.b, "b");
        readOrDie(inst.out, "acc"); // read-modify-write
        write(inst.scratch, "scratch");
        write(inst.out, "acc");
        carry = tag = Latch::Clobbered;
        break;
      }
      case Opcode::ReduceSum: {
        const unsigned lanes = inst.imm;
        const unsigned w0 = inst.imm2;
        if (lanes == 0 || !isPow2(lanes))
            nc_fatal("%s: lanes %u not a power of two",
                     where().c_str(), lanes);
        if (w0 == 0)
            nc_fatal("%s: zero live width", where().c_str());
        const unsigned steps = log2Ceil(lanes);
        boundsOrDie(inst.a, "acc");
        if (inst.a.bits < w0 + steps)
            nc_fatal("%s: reduction headroom: need %u rows, acc "
                     "[%u,+%u)", where().c_str(), w0 + steps,
                     inst.a.base, inst.a.bits);
        if (steps > 0) {
            boundsOrDie(inst.scratch, "scratch");
            if (inst.scratch.bits < w0 + steps - 1)
                nc_fatal("%s: reduction scratch: need %u rows, have "
                         "[%u,+%u)", where().c_str(), w0 + steps - 1,
                         inst.scratch.base, inst.scratch.bits);
            if (inst.scratch.overlaps(inst.a))
                nc_fatal("%s: reduction scratch [%u,+%u) overlaps "
                         "the accumulator", where().c_str(),
                         inst.scratch.base, inst.scratch.bits);
        }
        readOrDie(inst.a.slice(0, w0), "acc");
        if (steps > 0) {
            write(inst.a.slice(0, w0 + steps), "acc");
            write(inst.scratch.slice(0, w0 + steps - 1), "scratch");
            carry = Latch::Clobbered;
        }
        break;
      }
      case Opcode::ReduceMax: {
        const unsigned lanes = inst.imm;
        if (lanes == 0 || !isPow2(lanes))
            nc_fatal("%s: lanes %u not a power of two",
                     where().c_str(), lanes);
        boundsOrDie(inst.a, "data");
        readOrDie(inst.a, "data");
        if (lanes > 1) {
            boundsOrDie(inst.scratch, "move scratch");
            boundsOrDie(inst.scratch2, "compare scratch");
            if (inst.scratch.bits < inst.a.bits ||
                inst.scratch2.bits < inst.a.bits)
                nc_fatal("%s: scratch narrower than the %u-bit data",
                         where().c_str(), inst.a.bits);
            write(inst.a, "data");
            write(inst.scratch.slice(0, inst.a.bits), "move scratch");
            write(inst.scratch2.slice(0, inst.a.bits),
                  "compare scratch");
            carry = tag = Latch::Clobbered;
        }
        break;
      }
      case Opcode::MaxInto:
      case Opcode::MinInto: {
        boundsOrDie(inst.a, "a");
        boundsOrDie(inst.b, "b");
        boundsOrDie(inst.scratch, "scratch");
        if (inst.a.bits != inst.b.bits)
            nc_fatal("%s: width mismatch (a %u, b %u)",
                     where().c_str(), inst.a.bits, inst.b.bits);
        if (inst.scratch.bits < inst.a.bits)
            nc_fatal("%s: compare scratch [%u,+%u) narrower than the "
                     "operands", where().c_str(), inst.scratch.base,
                     inst.scratch.bits);
        const bs::VecSlice cmp = inst.scratch.slice(0, inst.a.bits);
        aliasOrDie(cmp, inst.b, "b");
        if (cmp.overlaps(inst.a))
            nc_fatal("%s: compare scratch overlaps operand a",
                     where().c_str());
        readOrDie(inst.a, "a");
        readOrDie(inst.b, "b");
        write(cmp, "scratch");
        write(inst.a, "a", /*pred=*/true); // selective copy-back
        carry = tag = Latch::Clobbered;
        break;
      }
      case Opcode::Relu: {
        boundsOrDie(inst.a, "a");
        readOrDie(inst.a, "a");
        write(inst.a, "a", /*pred=*/true); // sign-predicated zero
        tag = Latch::Clobbered;
        break;
      }
      case Opcode::ShiftUp:
      case Opcode::ShiftDown: {
        boundsOrDie(inst.a, "a");
        readOrDie(inst.a, "a");
        write(inst.a, "a");
        break;
      }
      case Opcode::Saturate: {
        boundsOrDie(inst.a, "a");
        if (inst.imm == 0 || inst.imm >= inst.a.bits)
            nc_fatal("%s: clamp to %u bits of a %u-bit value",
                     where().c_str(), inst.imm, inst.a.bits);
        readOrDie(inst.a, "a");
        write(inst.a.slice(0, inst.imm), "a", /*pred=*/true);
        tag = Latch::Clobbered;
        break;
      }
      case Opcode::Divide: {
        boundsOrDie(inst.a, "num");
        boundsOrDie(inst.b, "den");
        boundsOrDie(inst.out, "quot");
        boundsOrDie(inst.scratch, "rwork");
        boundsOrDie(inst.scratch2, "twork");
        boundsOrDie(inst.c, "dwork");
        const unsigned n = inst.a.bits, d = inst.b.bits;
        if (inst.out.bits < n)
            nc_fatal("%s: quotient [%u,+%u) too narrow for a %u-bit "
                     "dividend", where().c_str(), inst.out.base,
                     inst.out.bits, n);
        if (inst.scratch.bits < n + d)
            nc_fatal("%s: rwork needs %u rows, have [%u,+%u)",
                     where().c_str(), n + d, inst.scratch.base,
                     inst.scratch.bits);
        if (inst.scratch2.bits < d + 1 || inst.c.bits < d + 1)
            nc_fatal("%s: t/d work bands need %u rows",
                     where().c_str(), d + 1);
        readOrDie(inst.a, "num");
        readOrDie(inst.b, "den");
        write(inst.scratch.slice(0, n + d), "rwork");
        write(inst.c.slice(0, d + 1), "dwork");
        write(inst.scratch2.slice(0, d + 1), "twork");
        write(inst.out.slice(0, n), "quot");
        carry = tag = Latch::Clobbered;
        break;
      }
      case Opcode::BatchNorm: {
        boundsOrDie(inst.a, "val");
        boundsOrDie(inst.b, "gamma");
        boundsOrDie(inst.c, "beta");
        boundsOrDie(inst.scratch, "prod");
        if (inst.c.bits != inst.a.bits)
            nc_fatal("%s: beta width %u must match the %u-bit value",
                     where().c_str(), inst.c.bits, inst.a.bits);
        if (inst.scratch.bits != inst.a.bits + inst.b.bits)
            nc_fatal("%s: product band needs %u rows, have [%u,+%u)",
                     where().c_str(), inst.a.bits + inst.b.bits,
                     inst.scratch.base, inst.scratch.bits);
        if (inst.imm + inst.a.bits > inst.scratch.bits)
            nc_fatal("%s: shift %u pushes the window past the "
                     "product", where().c_str(), inst.imm);
        if (inst.scratch.overlaps(inst.a) ||
            inst.scratch.overlaps(inst.b))
            nc_fatal("%s: product band overlaps an operand",
                     where().c_str());
        readOrDie(inst.a, "val");
        readOrDie(inst.b, "gamma");
        readOrDie(inst.c, "beta");
        write(inst.scratch, "prod");
        write(inst.a, "val");
        carry = tag = Latch::Clobbered;
        break;
      }
      case Opcode::Search: {
        boundsOrDie(inst.a, "a");
        if (inst.a.bits > 64)
            nc_fatal("%s: key wider than 64 bits", where().c_str());
        if (truncate(inst.key, inst.a.bits) != inst.key)
            nc_fatal("%s: key does not fit %u bits", where().c_str(),
                     inst.a.bits);
        readOrDie(inst.a, "a");
        tag = Latch::Valid;
        break;
      }
      case Opcode::LoadTag: {
        readRowOrDie(inst.a.base, "tag source");
        tag = Latch::Valid;
        break;
      }
    }

    stats.staticCycles += instructionCycles(inst, ctx.alu);
    cur = nullptr;
}

/** Synthesize + verify one layer program and record its report. */
ProgramStats
verifyOne(const ProgramContext &ctx,
          const std::vector<Instruction> &program, const char *kind,
          std::vector<LayerProgramReport> *reports)
{
    const ProgramStats st = verifyProgram(ctx, program);
    if (reports)
        reports->push_back({ctx.layer, kind, st});
    return st;
}

/** The §IV-D merge scalars every eltwise layer calibrates to (both
 * operands are requantized bytes, so acc_max is 2*255; shift only
 * positions the window — the program's shape and cost are
 * shift-invariant). */
constexpr unsigned kEltwiseShift = 8;

/** Whether the config's cycle constants match the canonical 8-bit /
 * 24-bit-accumulator programs the kernels hard-code. */
bool
costCheckable(const CostConfig &cost)
{
    return cost.bits == 8 && cost.accumulatorBits == 24;
}

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     t0)
        .count();
}

} // namespace

uint64_t
instructionCycles(const Instruction &inst,
                  const bitserial::AluConfig &alu)
{
    switch (inst.op) {
      case Opcode::Copy:
      case Opcode::CopyInv:
        return bs::implCopyCycles(inst.a.bits);
      case Opcode::Zero:
        return bs::implCopyCycles(inst.out.bits);
      case Opcode::Add: {
        const unsigned n = std::max(inst.a.bits, inst.b.bits);
        return bs::implAddCycles(n, inst.out.bits == n + 1);
      }
      case Opcode::Sub:
        return bs::implCopyCycles(inst.b.bits) +
               bs::implAddCycles(inst.a.bits,
                                 inst.out.bits == inst.a.bits + 1);
      case Opcode::Multiply:
        return bs::implMulCycles(inst.a.bits, inst.b.bits);
      case Opcode::Mac:
        // multiply into scratch, then the scratch+acc in-place add
        // (acc is the wider operand; no carry-out row).
        return bs::implMulCycles(inst.a.bits, inst.b.bits) +
               bs::implAddCycles(
                   std::max(inst.scratch.bits, inst.out.bits), false);
      case Opcode::ReduceSum:
        return bs::implReduceSumCycles(inst.imm2, inst.imm,
                                       alu.moveCyclesPerRow);
      case Opcode::ReduceMax:
        return bs::implReduceMaxCycles(inst.a.bits, inst.imm,
                                       alu.moveCyclesPerRow);
      case Opcode::MaxInto:
      case Opcode::MinInto:
        return bs::implMaxCycles(inst.a.bits);
      case Opcode::Relu:
        return bs::implReluCycles(inst.a.bits);
      case Opcode::ShiftUp:
      case Opcode::ShiftDown:
        return bs::implShiftCycles(inst.a.bits);
      case Opcode::Saturate:
        return bs::implSaturateCycles(inst.a.bits, inst.imm);
      case Opcode::Divide:
        return bs::implDivCycles(inst.a.bits, inst.b.bits);
      case Opcode::BatchNorm:
        return bs::implBatchNormCycles(inst.a.bits, inst.b.bits);
      case Opcode::Search:
        return inst.a.bits;
      case Opcode::LoadTag:
        return 1;
    }
    nc_panic("undecodable opcode %d", static_cast<int>(inst.op));
}

void
crossCheckProgramCostOrDie(const std::string &layer, const char *kind,
                           uint64_t static_cycles,
                           uint64_t analytic_cycles)
{
    if (static_cycles != analytic_cycles)
        nc_fatal("program verify '%s': %s program cost mismatch: "
                 "static sum %llu cycles, CostModel charges %llu",
                 layer.c_str(), kind,
                 static_cast<unsigned long long>(static_cycles),
                 static_cast<unsigned long long>(analytic_cycles));
}

ProgramStats
verifyProgram(const ProgramContext &ctx,
              const std::vector<Instruction> &program)
{
    if (program.empty())
        nc_fatal("program verify '%s': empty program",
                 ctx.layer.c_str());
    Interpreter interp(ctx);
    return interp.run(program);
}

std::vector<Instruction>
convWindowProgram(const mapping::ConvRowLayout &rows,
                  unsigned acc_bits)
{
    // Mirrors LayerEngine::buildConvProgram and the macro-op order
    // Executor::PreparedConv::run issues: packed 1x1 mappings stage
    // every MAC's input through the single slot inp[0].
    std::vector<Instruction> p;
    p.push_back(Instruction::zero(rows.partial));
    for (unsigned k = 0; k < rows.rs; ++k)
        p.push_back(Instruction::mac(
            rows.filt[k], rows.inp[rows.inp.size() > 1 ? k : 0],
            rows.partial.slice(0, acc_bits), rows.scratch, rows.zrow));
    p.push_back(Instruction::reduceSum(rows.partial, acc_bits,
                                       rows.lanes, rows.redScratch));
    return p;
}

std::vector<Instruction>
eltwiseMergeProgram(const mapping::EltwiseRowLayout &rows,
                    unsigned shift, unsigned bits)
{
    std::vector<Instruction> p;
    p.push_back(Instruction::add(rows.va, rows.vb, rows.acc,
                                 rows.zrow));
    p.push_back(Instruction::multiply(rows.acc, rows.gain, rows.prod));
    p.push_back(Instruction::shiftDown(rows.prod, shift));
    p.push_back(Instruction::saturate(rows.prod, bits));
    return p;
}

std::vector<Instruction>
maxPoolWindowProgram(const mapping::PoolRowLayout &rows,
                     unsigned window)
{
    nc_assert(window >= 1, "empty pooling window");
    std::vector<Instruction> p;
    p.push_back(Instruction::copy(rows.cur, rows.best));
    for (unsigned k = 1; k < window; ++k) {
        Instruction fold;
        fold.op = Opcode::MaxInto;
        fold.a = rows.best;
        fold.b = rows.cur;
        fold.scratch = rows.cmp;
        p.push_back(fold);
    }
    return p;
}

void
requireAuditedBand(const std::string &layer, uint64_t base,
                   uint64_t arrays,
                   const std::vector<mapping::AuditRange> &ranges)
{
    if (arrays == 0)
        nc_fatal("program verify '%s': empty array band at %llu",
                 layer.c_str(),
                 static_cast<unsigned long long>(base));
    for (const mapping::AuditRange &r : ranges) {
        if (r.base <= base && base + arrays <= r.base + r.arrays)
            return;
    }
    nc_fatal("program verify '%s': array band [%llu,+%llu) is not "
             "contained in any range the plan auditor proved placed",
             layer.c_str(), static_cast<unsigned long long>(base),
             static_cast<unsigned long long>(arrays));
}

VerifySummary
verifyCompiledModelOrDie(const CompiledModel &model,
                         std::vector<LayerProgramReport> *reports)
{
    const Clock::time_point t0 = Clock::now();
    VerifySummary sum;

    const NeuralCacheConfig &cfg = model.config();
    const cache::Geometry &geom = cfg.geometry;
    const bool check_cost = costCheckable(cfg.cost);
    const CostModel costs(geom, cfg.cost);
    const std::vector<mapping::AuditRange> ranges =
        mapping::planRanges(model);

    for (const CompiledLayer &layer : model.compiledLayers()) {
        if (layer.backend != BackendKind::Functional &&
            layer.backend != BackendKind::Isa)
            continue; // reference layers run CPU loops, no program

        const std::string &name = layer.op.name();
        ProgramContext ctx;
        ctx.layer = name;
        ctx.arrayRows = geom.arrayRows;
        ctx.alu = cfg.cost.alu;

        if (layer.op.isConv()) {
            // Both kernels carve the same shared ConvRowLayout; the
            // ISA engine's cached stream is checked verbatim, the
            // direct-ALU kernel through the canonical program it
            // issues by hand.
            const mapping::ConvRowLayout *rows = nullptr;
            std::vector<Instruction> synth;
            const std::vector<Instruction> *prog = nullptr;
            if (layer.isaConv) {
                rows = &layer.isaConv->program().rows;
                prog = &layer.isaConv->program().program;
            } else if (layer.funcConv) {
                rows = &layer.funcConv->rowLayout();
                synth = convWindowProgram(*rows);
                prog = &synth;
            } else {
                continue; // not prepared (placed elsewhere)
            }
            ctx.guardRow = rows->zrow;
            ctx.initialDefs = rows->filt; // stationary filter pins
            ctx.initialDefs.insert(ctx.initialDefs.end(),
                                   rows->inp.begin(),
                                   rows->inp.end()); // window stream
            const ProgramStats st =
                verifyOne(ctx, *prog, "conv", reports);
            if (layer.bandArrays > 0)
                requireAuditedBand(name, layer.baseArray,
                                   layer.bandArrays, ranges);
            if (check_cost)
                crossCheckProgramCostOrDie(name, "conv", st.staticCycles,
                                costs.convWindowProgramCycles(
                                    rows->lanes, rows->rs));
            ++sum.programsVerified;
        } else if (layer.op.kind == dnn::OpKind::EltwiseAdd) {
            const mapping::EltwiseRowLayout *rows = nullptr;
            std::vector<Instruction> synth;
            const std::vector<Instruction> *prog = nullptr;
            if (layer.isaElt) {
                rows = &layer.isaElt->rowLayout();
                prog = &layer.isaElt->mergeProgram();
            } else if (layer.funcElt) {
                rows = &layer.funcElt->rowLayout();
                synth = eltwiseMergeProgram(*rows,
                                            layer.requantShift);
                prog = &synth;
            } else {
                continue;
            }
            ctx.guardRow = rows->zrow;
            ctx.initialDefs = {rows->va, rows->vb, rows->gain};
            const ProgramStats st =
                verifyOne(ctx, *prog, "eltwise", reports);
            requireAuditedBand(name, layer.scratchArray, 1, ranges);
            if (check_cost)
                crossCheckProgramCostOrDie(name, "eltwise", st.staticCycles,
                                costs.eltwiseProgramCycles());
            ++sum.programsVerified;
        } else if (layer.op.kind == dnn::OpKind::MaxPool) {
            // Full-window program (SAME-padded edge windows only
            // shorten the fold chain). Average pools reduce through
            // the add/shift path, not a cached fold program.
            const mapping::PoolRowLayout rows =
                mapping::makePoolRowLayout(geom);
            const unsigned window = layer.op.pool.r * layer.op.pool.s;
            const std::vector<Instruction> prog =
                maxPoolWindowProgram(rows, window);
            ctx.guardRow = rows.zrow;
            ctx.initialDefs = {rows.cur};
            const ProgramStats st =
                verifyOne(ctx, prog, "maxpool", reports);
            requireAuditedBand(name, layer.scratchArray, 1, ranges);
            if (check_cost)
                crossCheckProgramCostOrDie(
                    name, "maxpool", st.staticCycles,
                    costs.maxPoolWindowProgramCycles(window));
            ++sum.programsVerified;
        }
    }

    sum.verifyMs = msSince(t0);
    return sum;
}

VerifySummary
verifyNetworkProgramsOrDie(const dnn::Network &net,
                           const NeuralCacheConfig &cfg,
                           std::vector<LayerProgramReport> *reports)
{
    const Clock::time_point t0 = Clock::now();
    VerifySummary sum;

    const cache::Geometry &geom = cfg.geometry;
    const bool check_cost = costCheckable(cfg.cost);
    const CostModel costs(geom, cfg.cost);

    for (const dnn::Stage &stage : net.stages) {
        for (const dnn::Branch &branch : stage.branches) {
            for (const dnn::Op &op : branch.ops) {
                ProgramContext ctx;
                ctx.layer = op.name();
                ctx.arrayRows = geom.arrayRows;
                ctx.alu = cfg.cost.alu;

                if (op.isConv()) {
                    const mapping::FunctionalConvPlan fplan =
                        mapping::planFunctionalConv(op.conv, geom);
                    if (!fplan.fits)
                        continue; // priced analytically, no program
                    const mapping::ConvRowLayout rows =
                        mapping::makeConvRowLayout(geom, fplan);
                    ctx.guardRow = rows.zrow;
                    ctx.initialDefs = rows.filt;
                    ctx.initialDefs.insert(ctx.initialDefs.end(),
                                           rows.inp.begin(),
                                           rows.inp.end());
                    const ProgramStats st =
                        verifyOne(ctx, convWindowProgram(rows),
                                  "conv", reports);
                    if (check_cost)
                        crossCheckProgramCostOrDie(
                            ctx.layer, "conv", st.staticCycles,
                            costs.convWindowProgramCycles(rows.lanes,
                                                          rows.rs));
                    ++sum.programsVerified;
                } else if (op.kind == dnn::OpKind::EltwiseAdd) {
                    const mapping::EltwiseRowLayout rows =
                        mapping::makeEltwiseRowLayout(geom);
                    ctx.guardRow = rows.zrow;
                    ctx.initialDefs = {rows.va, rows.vb, rows.gain};
                    const ProgramStats st = verifyOne(
                        ctx, eltwiseMergeProgram(rows, kEltwiseShift),
                        "eltwise", reports);
                    if (check_cost)
                        crossCheckProgramCostOrDie(ctx.layer, "eltwise",
                                        st.staticCycles,
                                        costs.eltwiseProgramCycles());
                    ++sum.programsVerified;
                } else if (op.kind == dnn::OpKind::MaxPool) {
                    const mapping::PoolRowLayout rows =
                        mapping::makePoolRowLayout(geom);
                    const unsigned window = op.pool.r * op.pool.s;
                    ctx.guardRow = rows.zrow;
                    ctx.initialDefs = {rows.cur};
                    const ProgramStats st = verifyOne(
                        ctx, maxPoolWindowProgram(rows, window),
                        "maxpool", reports);
                    if (check_cost)
                        crossCheckProgramCostOrDie(
                            ctx.layer, "maxpool", st.staticCycles,
                            costs.maxPoolWindowProgramCycles(window));
                    ++sum.programsVerified;
                }
            }
        }
    }

    sum.verifyMs = msSince(t0);
    return sum;
}

} // namespace nc::core::verify

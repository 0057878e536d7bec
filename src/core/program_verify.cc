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
                     "live Add precedes it (carry clobbered or "
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
    const bool predicable = inst.op == Opcode::Copy ||
                            inst.op == Opcode::Zero ||
                            inst.op == Opcode::Add;
    if (inst.pred && !predicable)
        nc_fatal("%s: pred set on an opcode with no predicated "
                 "write-back", where().c_str());
    if (inst.pred)
        tagValidOrDie();
    if (inst.carryIn && inst.op != Opcode::Add)
        nc_fatal("%s: carryIn set on an opcode that cannot consume "
                 "the carry latches", where().c_str());

    switch (inst.op) {
      case Opcode::Copy: {
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
      case Opcode::MaxInto: {
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

/**
 * The per-op step both whole-model walks share: prove one op's
 * program legal under the context its row layout fixes (guard row,
 * prologue defs), record its report, and cross-check its static
 * cycle sum against the CostModel's charge for the same op.
 */
class OpVerifier
{
  public:
    OpVerifier(const NeuralCacheConfig &cfg,
               std::vector<LayerProgramReport> *reports_)
        : geom(cfg.geometry), alu(cfg.cost.alu),
          checkCost(costCheckable(cfg.cost)),
          costs(cfg.geometry, cfg.cost), reports(reports_)
    {
    }

    /** A conv window; filter pins and the window stream are the
     * prologue. */
    void
    conv(const std::string &layer, const mapping::ConvRowLayout &rows,
         const std::vector<Instruction> &program)
    {
        std::vector<bs::VecSlice> defs = rows.filt;
        defs.insert(defs.end(), rows.inp.begin(), rows.inp.end());
        const ProgramStats st =
            prove(layer, "conv", rows.zrow, std::move(defs), program);
        if (checkCost)
            crossCheckProgramCostOrDie(
                layer, "conv", st.staticCycles,
                costs.convWindowProgramCycles(rows.lanes, rows.rs));
    }

    /** An eltwise merge; both operands and the gain are streamed
     * in first. */
    void
    eltwise(const std::string &layer,
            const mapping::EltwiseRowLayout &rows,
            const std::vector<Instruction> &program)
    {
        const ProgramStats st =
            prove(layer, "eltwise", rows.zrow,
                  {rows.va, rows.vb, rows.gain}, program);
        if (checkCost)
            crossCheckProgramCostOrDie(layer, "eltwise",
                                       st.staticCycles,
                                       costs.eltwiseProgramCycles());
    }

    /** A max pool's full-window fold (SAME-padded edge windows run
     * prefixes of it); each element is streamed in before its
     * instruction. */
    void
    maxPool(const std::string &layer, unsigned window)
    {
        const mapping::PoolRowLayout rows =
            mapping::makePoolRowLayout(geom);
        const ProgramStats st =
            prove(layer, "maxpool", rows.zrow, {rows.cur},
                  maxPoolWindowProgram(rows, window));
        if (checkCost)
            crossCheckProgramCostOrDie(
                layer, "maxpool", st.staticCycles,
                costs.maxPoolWindowProgramCycles(window));
    }

    uint64_t verified() const { return nVerified; }

  private:
    ProgramStats
    prove(const std::string &layer, const char *kind, unsigned guard_row,
          std::vector<bs::VecSlice> defs,
          const std::vector<Instruction> &program)
    {
        ProgramContext ctx;
        ctx.layer = layer;
        ctx.arrayRows = geom.arrayRows;
        ctx.guardRow = guard_row;
        ctx.initialDefs = std::move(defs);
        ctx.alu = alu;
        const ProgramStats st = verifyProgram(ctx, program);
        if (reports)
            reports->push_back({layer, kind, st});
        ++nVerified;
        return st;
    }

    const cache::Geometry &geom;
    const bs::AluConfig alu;
    const bool checkCost;
    const CostModel costs;
    std::vector<LayerProgramReport> *reports;
    uint64_t nVerified = 0;
};

} // namespace

uint64_t
instructionCycles(const Instruction &inst,
                  const bitserial::AluConfig &alu)
{
    switch (inst.op) {
      case Opcode::Copy:
        return bs::implCopyCycles(inst.a.bits);
      case Opcode::Zero:
        return bs::implCopyCycles(inst.out.bits);
      case Opcode::Add: {
        const unsigned n = std::max(inst.a.bits, inst.b.bits);
        return bs::implAddCycles(n, inst.out.bits == n + 1);
      }
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
      case Opcode::MaxInto:
        return bs::implMaxCycles(inst.a.bits);
      case Opcode::ShiftDown:
        return bs::implShiftCycles(inst.a.bits);
      case Opcode::Saturate:
        return bs::implSaturateCycles(inst.a.bits, inst.imm);
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
    // Packed 1x1 mappings stage every MAC's input through the single
    // slot inp[0]; the kernel streams it in before each MAC.
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
    VerifySummary sum;
    // A Reference model's layers run CPU loops: no programs.
    if (model.backend() != BackendKind::Functional)
        return sum;

    const Clock::time_point t0 = Clock::now();
    OpVerifier check(model.config(), reports);
    const std::vector<mapping::AuditRange> ranges =
        mapping::planRanges(model);

    for (const CompiledLayer &layer : model.compiledLayers()) {
        // Prepared kernels are checked through their own streams:
        // what is proved here is exactly what runs.
        const std::string &name = layer.op.name();
        if (layer.op.isConv()) {
            if (!layer.funcConv)
                continue; // not prepared (placed elsewhere)
            check.conv(name, layer.funcConv->rowLayout(),
                       layer.funcConv->program());
            if (layer.bandArrays > 0)
                requireAuditedBand(name, layer.baseArray,
                                   layer.bandArrays, ranges);
        } else if (layer.op.kind == dnn::OpKind::EltwiseAdd) {
            if (!layer.funcElt)
                continue;
            check.eltwise(name, layer.funcElt->rowLayout(),
                          layer.funcElt->program());
            requireAuditedBand(name, layer.scratchArray, 1, ranges);
        } else if (layer.op.kind == dnn::OpKind::MaxPool) {
            // Average pools reduce through the add/shift path, not a
            // fold program.
            check.maxPool(name, layer.op.pool.r * layer.op.pool.s);
            requireAuditedBand(name, layer.scratchArray, 1, ranges);
        }
    }

    sum.programsVerified = check.verified();
    sum.verifyMs = msSince(t0);
    return sum;
}

VerifySummary
verifyNetworkProgramsOrDie(const dnn::Network &net,
                           const NeuralCacheConfig &cfg,
                           std::vector<LayerProgramReport> *reports)
{
    const Clock::time_point t0 = Clock::now();
    OpVerifier check(cfg, reports);
    const cache::Geometry &geom = cfg.geometry;

    for (const dnn::Stage &stage : net.stages) {
        for (const dnn::Branch &branch : stage.branches) {
            for (const dnn::Op &op : branch.ops) {
                if (op.isConv()) {
                    const mapping::FunctionalConvPlan fplan =
                        mapping::planFunctionalConv(op.conv, geom);
                    if (!fplan.fits)
                        continue; // priced analytically, no program
                    const mapping::ConvRowLayout rows =
                        mapping::makeConvRowLayout(geom, fplan);
                    check.conv(op.name(), rows, convWindowProgram(rows));
                } else if (op.kind == dnn::OpKind::EltwiseAdd) {
                    const mapping::EltwiseRowLayout rows =
                        mapping::makeEltwiseRowLayout(geom);
                    check.eltwise(op.name(), rows,
                                  eltwiseMergeProgram(rows,
                                                      kEltwiseShift));
                } else if (op.kind == dnn::OpKind::MaxPool) {
                    check.maxPool(op.name(), op.pool.r * op.pool.s);
                }
            }
        }
    }

    VerifySummary sum;
    sum.programsVerified = check.verified();
    sum.verifyMs = msSince(t0);
    return sum;
}

} // namespace nc::core::verify

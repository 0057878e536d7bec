/**
 * @file
 * Static bit-serial program verifier: an abstract interpreter over
 * core::Instruction streams.
 *
 * Engine::compile() runs it unconditionally over every program the
 * compile pass produced — each prepared conv and eltwise kernel's own
 * stream verbatim, and each max pool's fold program, which the
 * kernel runs prefixes of — so a malformed stream dies at compile
 * time with the layer name and instruction index, never as a
 * corrupted activation ten layers later. The kernels run those very
 * streams through the per-bank FSM (controller.hh), which checks
 * every instruction's charged cycles against instructionCycles() at
 * run time. Five check classes:
 *
 *  1. Row/slice bounds: every operand slice inside the array
 *     geometry, and the layer's array band inside a range the plan
 *     auditor (mapping::planRanges) proved placed.
 *  2. Initialization dataflow: per-row def-before-use; the
 *     filter-pin / vector-store prologue is modeled as initial defs.
 *  3. Guard-row protection: the reserved constant-zero word line
 *     (bitserial::RowAllocator::zeroRow, the fault canary) is never
 *     a destination.
 *  4. Carry/tag latch discipline: a predicated write-back or a
 *     carry-consuming Add must be preceded by an op that defines the
 *     latch it reads, with no clobbering op in between.
 *  5. Static cycle accounting: the summed per-opcode cycle model
 *     must equal the CostModel's analytic charge bit-exact — the
 *     compile-time proof that the functional and analytic models
 *     cannot drift.
 *
 * Violations are fatal (nc_fatal) naming the layer, the instruction
 * index, and the offending operand slice.
 */

#ifndef NC_CORE_PROGRAM_VERIFY_HH
#define NC_CORE_PROGRAM_VERIFY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bitserial/cost.hh"
#include "core/isa.hh"
#include "mapping/plan.hh"
#include "mapping/plan_audit.hh"

namespace nc::dnn
{
struct Network;
}

namespace nc::core
{
class CompiledModel;
struct NeuralCacheConfig;
}

namespace nc::core::verify
{

/** What the interpreter measured while proving one program legal. */
struct ProgramStats
{
    size_t instructions = 0;
    size_t defs = 0;          ///< rows the program itself defined
    unsigned maxLiveRows = 0; ///< peak defined-row count
    uint64_t staticCycles = 0; ///< summed per-opcode cycle model
};

/**
 * Everything the interpreter knows before instruction 0: the array
 * shape, the write-protected guard row, and the slices the layer's
 * prologue (filter pinning, window/operand vector stores) defines
 * before the broadcast program runs.
 */
struct ProgramContext
{
    std::string layer;        ///< diagnostic name for violations
    unsigned arrayRows = 0;   ///< word lines per array
    unsigned guardRow = bitserial::kNoRow; ///< reserved zero row
    std::vector<bitserial::VecSlice> initialDefs;
    bitserial::AluConfig alu;
};

/**
 * Cycles instruction @p inst charges, mirroring exactly what the ALU
 * (bitserial/alu.cc, extensions.cc) returns for the macro-op.
 * @pre the instruction is shape-legal (verifyProgram proves that).
 */
uint64_t instructionCycles(const Instruction &inst,
                           const bitserial::AluConfig &alu);

/**
 * Abstractly interpret @p program under @p ctx, proving check
 * classes 1-4 and accumulating the class-5 cycle sum. Fatal on the
 * first violation, naming ctx.layer, the instruction index, and the
 * operand slice. Returns the measured stats.
 */
ProgramStats verifyProgram(const ProgramContext &ctx,
                           const std::vector<Instruction> &program);

/** @name Canonical per-layer programs
 * One output window / element of each layer kind as an instruction
 * stream over the shared mapping row layouts. These builders are the
 * only source of layer programs: the functional kernels build their
 * streams from them once and run them on every array of a pass.
 */
/// @{
/** zero partial, rs MACs, one cross-lane reduction (Figure 10). */
std::vector<Instruction>
convWindowProgram(const mapping::ConvRowLayout &rows,
                  unsigned acc_bits = 24);
/** Widen-add, multiply, truncating shift, clamp (§IV-D merge). */
std::vector<Instruction>
eltwiseMergeProgram(const mapping::EltwiseRowLayout &rows,
                    unsigned shift, unsigned bits = 8);
/** Seed the running max, then window-1 MaxInto folds (§IV-D). */
std::vector<Instruction>
maxPoolWindowProgram(const mapping::PoolRowLayout &rows,
                     unsigned window);
/// @}

/**
 * Check class 5's comparator: fatal (naming the layer and program
 * kind) unless the interpreter's summed cycle model equals the
 * CostModel's analytic charge bit-exact.
 */
void crossCheckProgramCostOrDie(const std::string &layer,
                                const char *kind,
                                uint64_t static_cycles,
                                uint64_t analytic_cycles);

/**
 * Check class 1's band half: the program's array band
 * [base, base + arrays) must be contained in one of the ranges the
 * plan auditor proved placed (mapping::planRanges). Fatal with the
 * layer name and band otherwise.
 */
void requireAuditedBand(const std::string &layer, uint64_t base,
                        uint64_t arrays,
                        const std::vector<mapping::AuditRange> &ranges);

/** One verified layer program, for tooling (examples/program_lint). */
struct LayerProgramReport
{
    std::string layer;
    std::string kind; ///< "conv", "eltwise", "maxpool"
    ProgramStats stats;
};

/** What a whole-model verification pass costs and covered. */
struct VerifySummary
{
    uint64_t programsVerified = 0;
    double verifyMs = 0.0;
};

/**
 * Verify every prepared program of @p model: each conv and eltwise
 * kernel's own stream verbatim and each max pool's fold program,
 * plus the band containment check against the audited placement and
 * the bit-exact CostModel cycle cross-check (8-bit /
 * 24-bit-accumulator configs). A Reference model and average pools
 * (no in-array program) are skipped. Fatal on any violation;
 * returns coverage counters, and per-layer stats through @p reports
 * when non-null.
 */
VerifySummary
verifyCompiledModelOrDie(const CompiledModel &model,
                         std::vector<LayerProgramReport> *reports =
                             nullptr);

/**
 * The analytic-compile twin of verifyCompiledModelOrDie(): no
 * placement exists, so every op the functional mapper could place
 * (planFunctionalConv fits) gets its canonical program synthesized
 * on @p cfg's geometry and verified, cycle cross-check included.
 * Ops with no functional mapping are skipped — the analytic model
 * prices them without a program.
 */
VerifySummary
verifyNetworkProgramsOrDie(const dnn::Network &net,
                           const NeuralCacheConfig &cfg,
                           std::vector<LayerProgramReport> *reports =
                               nullptr);

} // namespace nc::core::verify

#endif // NC_CORE_PROGRAM_VERIFY_HH

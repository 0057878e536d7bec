/**
 * @file
 * Functional executor: run DNN primitives through real bit-serial
 * array operations.
 *
 * This is the verification half of the simulator (the cost model is
 * the timing half): layers are mapped channel-per-bit-line exactly as
 * §IV-A describes, every MAC and reduction executes through
 * bitserial::* micro-ops on sram::Array bit cells, and the result is
 * read back and compared against dnn::convQuantUnsigned ground truth
 * in the tests. Timing falls out of the same run via the arrays'
 * cycle counters, which keeps the functional and analytic models
 * honest with each other.
 *
 * Conv windows, requantization, eltwise merges and max-pool folds run
 * canonical programs (program_verify.hh) through the per-bank FSM
 * (controller.hh) — the stream the compile-time verifier proves is
 * the stream that executes. Only the conv is prepared: it keeps its
 * program and pinned filters from one run to the next. The scratch
 * kernels run serially on the scratch array their caller names, each
 * built per call from a mapping row layout, a program builder and
 * runProgram; average pooling alone still issues ALU calls directly.
 * The two pools share one walk over (channel pass, output row,
 * output column), each passing only its per-window body.
 *
 * Parallelism: conv filter pinning and conv passes fan out over a
 * common::ThreadPool. A conv pass runs its (filter batch, channel
 * chunk) arrays in lockstep groups, the way a slice broadcasts one
 * instruction to all its arrays (§IV-F): each task copies a
 * contiguous run of arrays side by side into one task-private group
 * array (sram::Array member lanes), issues every window's input
 * stores and program once over it, then copies each member back and
 * charges it the group's cycles — exactly what it counts alone. Each
 * window slot is gathered and packed once per channel chunk and
 * written straight into every member of that chunk
 * (bitserial::storeMembers), and every member's partial sum is read
 * in one pass over the partial band's rows
 * (bitserial::loadMemberLanes). A
 * pass of n arrays runs as max(ceil(n / 64), W) groups: W is
 * min(n, pool size), or 1 when the call already runs inside a pool
 * task (a branch or image fan-out), where the inner loop runs
 * inline. A group holding a faulted or reference-mode array runs
 * as groups of one, each on its own array with no copies: the same
 * window loop, the per-array touch sequence. Each task owns its
 * arrays and writes a disjoint slice of the output, so outputs and
 * every array's rows, latches and cycle counters are bit-identical
 * for any thread count — the modeled machine is unchanged, only the
 * simulator wall clock shrinks. Thread count: constructor argument,
 * else NC_THREADS, else hardware concurrency.
 *
 * Scope: shapes inside the one-array-per-filter-batch envelope run
 * the original untransformed mapping (bit- and cycle-identical to the
 * historical kernels). Larger shapes engage the §IV-A transforms the
 * mapper plans (mapping::planFunctionalConv, run once at compile and
 * handed to prepareConv): 1x1 filter packing, filter splitting for
 * wide windows, and channel chunking across arrays with the per-chunk
 * partials merged after read-out — which is what lets Inception-scale
 * layers (2048-channel 1x1s, 5x5 windows) execute functionally. The
 * plan's lane table (mapping::ConvLaneTable) is the one statement of
 * which lane and MAC slot hold channel c at window position k: filter
 * pinning writes weights through it, and one gather stages conv
 * inputs through it and pool window elements as unit-stride runs.
 */

#ifndef NC_CORE_EXECUTOR_HH
#define NC_CORE_EXECUTOR_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "bitserial/layout.hh"
#include "cache/compute_cache.hh"
#include "common/thread_pool.hh"
#include "core/isa.hh"
#include "dnn/reference.hh"
#include "dnn/tensor.hh"
#include "mapping/plan.hh"

namespace nc::core
{

/**
 * Executes quantized layers on compute-cache arrays. The scratch
 * kernels (pools, requantization, the eltwise merge) run on the
 * scratch array their caller names (kHelperScratch when it names
 * none), and the prepared conv runs on the arrays its caller placed.
 */
class Executor
{
  public:
    /** The scratch array of a kernel call that names none. */
    static constexpr uint64_t kHelperScratch = 0;

    /** @param nthreads worker threads (0 = NC_THREADS / hardware). */
    explicit Executor(cache::ComputeCache &cc_, unsigned nthreads = 0)
        : cc(cc_),
          ownedPool(std::make_unique<common::ThreadPool>(nthreads)),
          pool(*ownedPool)
    {
    }

    /** Share an external worker pool (e.g. one engine-wide pool). */
    Executor(cache::ComputeCache &cc_, common::ThreadPool &shared)
        : cc(cc_), pool(shared)
    {
    }

    /**
     * A convolution layer compiled onto the cache: the Figure-10 row
     * layout is fixed and the filters sit stationary (transposed) in
     * the layer's array band, so run() only streams input windows and
     * computes — repeatedly, without re-deriving the layout or
     * re-storing weights. Obtained from Executor::prepareConv(); the
     * Executor must outlive every prepared layer it hands out.
     *
     * Large layers span several arrays per filter batch (channel
     * chunks, merged after read-out) and layers whose band is smaller
     * than filterBatches() x chunks run in grouped passes, re-pinning
     * each group's filters — the §IV-E streaming regime for networks
     * that exceed the cache.
     *
     * Batching (§IV-E): a resident layer can pin replica bands at
     * fixed flat-array offsets (pinReplica), one per concurrently
     * executing image, and run() then names which replica an image
     * streams through — concurrent images never share arrays, so a
     * parallel batch is bit-identical to the serial per-image loop.
     */
    class PreparedConv
    {
      public:
        /**
         * Execute the layer on @p in; returns raw accumulators in
         * [m][oh][ow] order, exactly like Executor::conv. @p w must
         * be the bank prepareConv pinned: streaming layers re-pin it
         * group by group, so the layer keeps no copy of its own.
         * @p array_offset selects the replica band pinned at
         * base + offset (0 = the band prepareConv placed); streaming
         * layers accept only offset 0.
         */
        std::vector<uint32_t> run(const dnn::QTensor &in,
                                  const dnn::QWeights &w,
                                  unsigned &out_h, unsigned &out_w,
                                  uint64_t array_offset = 0);

        /**
         * Pin a stationary replica of @p w in the band
         * [base + offset, base + offset + bandArrays()): the
         * per-image copy one extra in-flight image streams through.
         * Resident layers only (a streaming layer re-pins its shared
         * band as it runs and cannot overlap images). @p w must be
         * the bank prepareConv pinned.
         */
        void pinReplica(const dnn::QWeights &w, uint64_t array_offset);

        /** Arrays the band holds (>= chunks, <= m x chunks). */
        uint64_t bandArrays() const { return band; }
        /** Whether filters stay pinned across run() calls. */
        bool resident() const { return isResident; }
        /** The shared Figure-10 row carve-up program() addresses. */
        const mapping::ConvRowLayout &rowLayout() const
        {
            return rows;
        }
        /** One output window's stream, run over every array of a
         * pass in lockstep (program_verify checks exactly this
         * stream). */
        const std::vector<Instruction> &program() const { return prog; }

      private:
        friend class Executor;
        PreparedConv() = default;

        void storeFilters(const dnn::QWeights &w, unsigned first_batch,
                          unsigned count, uint64_t array_offset);

        Executor *ex = nullptr;
        unsigned m = 0, c = 0, r = 0, s = 0;
        unsigned stride = 1;
        bool samePad = false;
        bool isResident = true;
        unsigned groupBatches = 0; ///< filter batches per pass
        uint64_t base = 0;
        uint64_t band = 0;
        mapping::FunctionalConvPlan fplan;
        mapping::ConvRowLayout rows; ///< shared Figure-10 carve-up
        mapping::ConvLaneTable table; ///< which lane holds what
        std::vector<Instruction> prog; ///< per-window program
    };

    /**
     * Compile-once half of conv(): fix the per-array row layout and
     * lane table of @p plan (the mapper's planFunctionalConv of this
     * layer) and pin @p w stationary in the band [base_array,
     * base_array + band_arrays). The returned layer can then run() any
     * number of inputs without repeating this work. Layers prepared at
     * different base offsets coexist (each owns its arrays), which is
     * how CompiledModel keeps a whole network resident.
     *
     * @param band_arrays arrays granted to the layer; 0 means the
     *     full m x chunks (whole layer resident). A smaller band (at
     *     least one filter batch's chunks) makes run() stream filter
     *     groups through the band.
     * @param resident false forces streaming even when the band
     *     covers the layer (the filters are re-pinned on every run
     *     because other layers time-share the same arrays).
     */
    PreparedConv prepareConv(const dnn::QWeights &w,
                             const mapping::FunctionalConvPlan &plan,
                             unsigned stride, bool same_pad,
                             uint64_t base_array = 0,
                             uint64_t band_arrays = 0,
                             bool resident = true);

    /**
     * Quantized residual merge of two equal-length byte vectors on
     * @p scratch_array: out = sat8(((a + b) * mult) >> shift) through
     * the canonical merge program, one lane per element, the
     * multiplier splat once per call and the operands streamed in
     * chunks of the array's bit lines. Ground truth:
     * dnn::eltwiseAddQuant.
     */
    std::vector<uint8_t> eltwiseAdd(const std::vector<uint8_t> &a,
                                    const std::vector<uint8_t> &b,
                                    uint8_t mult, unsigned shift,
                                    uint64_t scratch_array =
                                        kHelperScratch);

    /**
     * Quantized convolution (unsigned, zero-point-free): plan, prepare
     * and run once at array 0. Returns the raw accumulators in
     * [m][oh][ow] order, exactly like dnn::convQuantUnsigned.
     */
    std::vector<uint32_t> conv(const dnn::QTensor &in,
                               const dnn::QWeights &w, unsigned stride,
                               bool same_pad, unsigned &out_h,
                               unsigned &out_w);

    /**
     * Max pooling through bit-serial compare/select: each window runs
     * a prefix of the full-window fold program, one instruction per
     * valid element (SAME-padded edge windows run shorter prefixes).
     * Every window runs in order on @p scratch_array (parallel
     * branches give each branch its own, so their arrays and cycle
     * charges stay disjoint).
     */
    dnn::QTensor maxPool(const dnn::QTensor &in, unsigned r, unsigned s,
                         unsigned stride, bool same_pad,
                         uint64_t scratch_array = kHelperScratch);

    /**
     * Average pooling on @p scratch_array: bit-serial window
     * summation followed by in-array division (a shift when the
     * window is a power of two, restoring division otherwise — paper
     * §IV-D notes Inception's divisors are 4 bits). VALID windows by
     * default, matching Inception's 8x8 head; with TF SAME padding
     * partial windows divide by their valid-element count (padding
     * excluded), the divisor streamed per window — what Inception's
     * in-block 3x3/1 average pools need.
     */
    dnn::QTensor avgPool(const dnn::QTensor &in, unsigned r, unsigned s,
                         unsigned stride, bool same_pad = false,
                         uint64_t scratch_array = kHelperScratch);

    /**
     * In-cache requantization (§IV-D) on @p scratch_array: q = (acc *
     * mult) >> shift for every accumulator, through the canonical
     * requant program (multiply, shift, clamp), with the CPU-provided
     * 8-bit multiplier broadcast to every lane of each chunk. The
     * result is truncated (the hardware sequence has no rounding add)
     * and saturated to 8 bits in the array. Ground truth:
     * dnn::requantQuant.
     */
    std::vector<uint8_t> requantize(const std::vector<uint32_t> &acc,
                                    uint8_t mult, unsigned shift,
                                    uint64_t scratch_array =
                                        kHelperScratch);

    /** Lock-step compute cycles consumed so far. */
    uint64_t lockstepCycles() const { return cc.lockstepCycles(); }

    /** Worker threads the executor fans layer tasks over. */
    unsigned threads() const { return pool.size(); }

  private:
    cache::ComputeCache &cc;
    std::unique_ptr<common::ThreadPool> ownedPool; ///< null when shared
    common::ThreadPool &pool;
};

} // namespace nc::core

#endif // NC_CORE_EXECUTOR_HH

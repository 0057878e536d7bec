/**
 * @file
 * CompiledModel: the run-many half of the compile-once API.
 *
 * Engine::compile() pays, exactly once per network: quantization
 * calibration, mapping/tiling (mapping::planConv), per-layer
 * program/plan construction, and — for functional backends —
 * pinning every conv layer's filters stationary in its own band of
 * arrays. The resulting CompiledModel then answers run()/runBatch()
 * repeatedly without re-planning or re-streaming weights, which is
 * the whole point of the paper's §IV-E amortization argument. Every
 * layer runs on the model's one backend, called directly: a
 * Functional model runs the Executor's prepared conv kernels on their
 * bands and its scratch kernels on the layer's scratch array, a
 * Reference model the dnn::reference loops. It holds only what
 * runs: the §IV-C transposed DRAM image of a conv layer's filters is
 * a modeled artifact no kernel reads, built on demand by
 * mapping::WeightLayout from the layer's op, plan and weights.
 */

#ifndef NC_CORE_COMPILED_MODEL_HH
#define NC_CORE_COMPILED_MODEL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/backend.hh"
#include "core/executor.hh"
#include "dnn/layers.hh"
#include "dnn/tensor.hh"
#include "mapping/plan.hh"
#include "sram/faults.hh"

namespace nc::core
{

class Engine;

/**
 * One layer after compilation: the op descriptor plus everything the
 * compile pass derived for it. Conv/FC layers carry quantized
 * weights, the mapping plan, calibrated requantization scalars, and
 * — on the functional backend — the prepared stationary-filter
 * kernel.
 */
struct CompiledLayer
{
    dnn::Op op;

    /** @name Conv / FullyConnected artifacts */
    /// @{
    dnn::QWeights weights;
    /**
     * The mapper's §IV-A/B placement. With `op.conv` and `weights`
     * it is what mapping::WeightLayout needs to build the §IV-C DRAM
     * image on demand; the simulator kernels pin `weights` directly.
     */
    mapping::ConvPlan plan;
    /** The executor transform selection (pack/split/chunk bands):
     * placement sizes the band from it, and prepareConv builds the
     * layer's row layout and lane table from it. */
    mapping::FunctionalConvPlan funcPlan;
    /** Calibrated fixed-point requantization: q = sat8((acc*m)>>s).
     * For eltwise layers these are the merge scalars of
     * sat8(((a+b)*mult)>>shift). */
    uint8_t requantMult = 1;
    unsigned requantShift = 0;
    /** First flat array index of the layer's filter band. */
    uint64_t baseArray = 0;
    /**
     * Arrays in the band starting at baseArray (0 for layers that
     * own no filter band — pools, eltwise, a Reference model's convs).
     * With bandResident the pair records the placement verdict pass
     * B made, so the static auditor (mapping::auditPlan) can
     * re-derive every concurrently-live range without re-running
     * placement.
     */
    uint64_t bandArrays = 0;
    /** Whether the band is pinned stationary (resident regime) or
     * time-shares its arrays with the branch's other layers
     * (streaming regime). */
    bool bandResident = true;
    std::optional<Executor::PreparedConv> funcConv;
    /// @}

    /**
     * The scratch array the layer-less kernels (pools, eltwise,
     * requantization) of this layer scribble on — one per branch, so
     * concurrently executing branches never share mutable arrays.
     */
    uint64_t scratchArray = 0;
};

/** What one run() returns: tensors and timing from a single call. */
struct InferenceResult
{
    /**
     * The network's final activation (empty for a pure-analytic
     * compile, which prices the run without executing tensors).
     */
    dnn::QTensor output;
    /** The analytic answer for the same call (batch 1). */
    InferenceReport report;
};

/** What runBatch() returns: one output per input, one batch report. */
struct BatchInferenceResult
{
    std::vector<dnn::QTensor> outputs; ///< empty for pure-analytic
    InferenceReport report;
};

/** An immutable compiled network; obtained from Engine::compile. */
class CompiledModel
{
  public:
    /**
     * Sanity ceiling on batch sizes: large enough for any real
     * serving batch (the paper's Figure 16 sweeps to 256), small
     * enough that a negative or garbage size narrowed into an
     * unsigned is caught instead of allocating terabytes.
     */
    static constexpr unsigned kMaxBatch = 1u << 16;

    CompiledModel(CompiledModel &&) noexcept;
    CompiledModel &operator=(CompiledModel &&) noexcept;
    ~CompiledModel();

    const dnn::Network &network() const { return net; }
    /** The backend every layer of the model runs on. */
    BackendKind backend() const { return kind; }
    /** Whether run() produces output tensors: true for Reference and
     * Functional models, false for a pure-analytic compile. */
    bool functional() const { return !layers.empty(); }

    /** @name Expected input shape (the first op's input) */
    /// @{
    unsigned inputChannels() const { return inC; }
    unsigned inputHeight() const { return inH; }
    unsigned inputWidth() const { return inW; }
    /// @}

    /**
     * Execute one inference: runBatch over a batch of one, so the
     * fault canary's detect, repair and retry loop is the batch's.
     * Repeated calls are bit-identical and skip all compile-time
     * work (mapping, layout, filter loading).
     */
    InferenceResult run(const dnn::QTensor &input);

    /**
     * Execute a batch image-parallel (§IV-E): filters stay
     * stationary across the whole span, and the cache's spare array
     * capacity runs up to batchBands().imageSlots images
     * concurrently, each in its own replica of the network's bands —
     * batches beyond that time-slice in passes. Outputs are
     * bit-identical to the serial per-image loop for any thread
     * count and any batch size. @p inputs must be non-empty, at most
     * kMaxBatch images, every image of the network's input shape.
     * The report prices the batch with filter loading amortized.
     */
    BatchInferenceResult runBatch(std::span<const dnn::QTensor> inputs);

    /**
     * The analytic answer alone (no tensor execution): the batched
     * InferenceReport assembled from compile-time stage costs. Cheap
     * enough to sweep batch sizes on one compiled model. @p batch
     * must be in [1, kMaxBatch] — batch 0 is a hard error here, not
     * something callers are trusted to pre-filter.
     */
    InferenceReport report(unsigned batch = 1) const;

    /**
     * The §IV-E batch banding the residency planner carved: per-image
     * footprint, concurrent image slots, time-sliced pass structure.
     */
    const mapping::BatchBandPlan &batchBands() const
    {
        return bandPlan;
    }
    /** Image replicas pinned so far (grows lazily with runBatch). */
    unsigned preparedImageSlots() const { return preparedSlots; }

    /** Per-layer compile artifacts, in execution order. */
    const std::vector<CompiledLayer> &compiledLayers() const
    {
        return layers;
    }
    /** Find a compiled layer by op name (null if absent). */
    const CompiledLayer *findLayer(std::string_view name) const;

    /**
     * The functional compute cache (null for pure-analytic models):
     * array state, lock-step cycle counters.
     */
    cache::ComputeCache *computeCache() { return cc.get(); }
    const cache::ComputeCache *computeCache() const { return cc.get(); }

    /** The shared worker pool threads count. */
    unsigned threads() const;

    /**
     * One branch of a compiled stage: indices into compiledLayers()
     * in execution order, plus the fork/merge structure the run loop
     * honors (split tails fork on the penultimate tensor, eltwise
     * tails merge with the shortcut operand).
     */
    struct CompiledBranch
    {
        std::vector<size_t> layerIdx;
        bool splitTail = false;
        bool shortcut = false;
        bool endsWithEltwise = false;
    };

    /** One stage: branches execute concurrently, outputs concat. */
    struct CompiledStage
    {
        std::vector<CompiledBranch> branches;
        int shortcutBranch = -1;
    };

    /** The stage/branch program (empty for pure-analytic models). */
    const std::vector<CompiledStage> &compiledStages() const
    {
        return stages;
    }

    /** Slot 0's first scratch array (pass B's placement verdict). */
    uint64_t scratchBaseArray() const { return scratchBase; }

    /** The configuration the model was compiled against. */
    const NeuralCacheConfig &config() const { return cfg; }

    /** @name Fault tolerance (sram/faults.hh, cache/health.hh) */
    /// @{
    /**
     * Whether the runtime canary check runs after every pass: faults
     * configured with canary on, and a Functional model (a
     * Reference model touches no arrays).
     */
    bool canaryArmed() const { return canaryOn; }
    /** Flat logical indices [0, extent) the current plan touches:
     * pinned replicas in the resident regime, the placed region in
     * the streaming regime. The canary scans exactly this span. */
    uint64_t liveArrayExtent() const;
    /// @}

    /** @name Static program verification (core/program_verify.hh) */
    /// @{
    /** Layer programs the compile-time verifier proved legal
     * (cumulative: runtime repair re-verifies after re-placement). */
    uint64_t programsVerified() const { return nProgramsVerified; }
    /** Wall milliseconds spent verifying (part of compile time). */
    double verifyMs() const { return verifyMsTotal; }
    /// @}

  private:
    friend class Engine;
    CompiledModel();

    /**
     * Run one image, of the network's input shape (runBatch checks
     * every image before any runs), through every stage.
     * @p array_offset names the image slot's replica (§IV-E):
     * runBatch fans N images over the pool concurrently, and every
     * image in flight owns a complete replica of the network's array
     * state — stationary filter bands and scratch arrays alike — at
     * flat-array offset slot * perImageArrays. The functional kernels
     * add it to every array index they touch, so concurrent images
     * never share mutable arrays and outputs are bit-identical to the
     * serial per-image loop for any thread count. Slot 0 (offset 0)
     * is the bands the compile pass placed; run(), a batch of one,
     * executes there. A Reference model touches no arrays and
     * ignores the offset.
     */
    dnn::QTensor runLayers(const dnn::QTensor &input,
                           uint64_t array_offset);
    /** One chain op on the model's backend: the Functional kernels
     * or the dnn::reference loops. */
    dnn::QTensor runOp(CompiledLayer &layer, dnn::QTensor act,
                       uint64_t array_offset);
    /** By value: the fast path moves the activation through; the
     * branch fan-out passes each branch its own copy. */
    dnn::QTensor runBranch(const CompiledBranch &branch,
                           dnn::QTensor input, uint64_t array_offset);
    /**
     * Lazily pin image replicas 1..want-1 (bands + scratch at
     * offset slot * perImageArrays) so a batch can fan @p want
     * images concurrently. Capped by the planner's imageSlots;
     * replicas persist, so later batches skip the work.
     */
    unsigned ensureImageSlots(unsigned want);

    /**
     * Pass B + C of compilation, re-runnable: plan the §IV-E banding
     * over the currently usable arrays, place every on-array layer,
     * materialize scratch, and prepare the conv kernels.
     * Engine::compile runs it once; runtime repair re-runs it to
     * shed capacity (fewer image slots, or streaming once one
     * image's bands no longer fit) after arrays retire. Resets
     * preparedSlots to 1 — replicas re-pin lazily on the next pass.
     */
    void placeAndPrepare(bool force_streaming);

    /**
     * Read every live array's guard row (the reserved constant-zero
     * word line, bitserial::RowAllocator::zeroRow — always the top
     * row) and return the logical indices whose guard is corrupt.
     * The touch itself re-applies pending fault state, so a
     * transient struck since the last scan cannot hide.
     */
    std::vector<uint64_t> canaryScan();
    /**
     * One post-pass canary round: scan, and when corruption is found
     * charge @p budget, retire/repair every casualty, and re-audit
     * the healed plan. Returns true when the scan was clean (the
     * pass output is trustworthy); false means the caller must rerun
     * the pass. Exhausting the budget with corruption still present
     * is fatal, naming the retired arrays.
     */
    bool canarySweepAndRepair(unsigned &budget);
    /**
     * Retire faulty @p logical. With a spare available the
     * substitution is surgical: only the affected band replica (or
     * scratch slot) re-pins, and at most the planned-but-unpinned
     * slot count shrinks. With no spare the whole plan re-places
     * over the survivors (returns true: logical indices reshuffled).
     */
    bool repairOne(uint64_t logical);
    /** Re-pin whatever the plan keeps at @p logical after a
     * substitution (conv replica band, or nothing for scratch). */
    void repinLogical(uint64_t logical);

    dnn::Network net;
    NeuralCacheConfig cfg;
    BackendKind kind = BackendKind::Analytic;
    unsigned inC = 0, inH = 0, inW = 0;

    std::shared_ptr<common::ThreadPool> pool;
    std::unique_ptr<AnalyticBackend> analytic;
    std::vector<StageCost> stageCosts;
    mapping::BatchBandPlan bandPlan;
    uint64_t scratchBase = 0;  ///< slot 0's first scratch array
    unsigned preparedSlots = 1; ///< image replicas pinned so far

    sram::faults::Config faultCfg; ///< enabled() false: no campaign
    bool canaryOn = false;     ///< post-pass guard-row check armed
    uint64_t usedExtent = 0;   ///< streaming: top of the placed region
    /** @name Cumulative fault counters (into InferenceReport) */
    /// @{
    uint64_t nFaultsDetected = 0;
    uint64_t nArraysRetired = 0;
    uint64_t nPassRetries = 0;
    /// @}

    /** @name Static program verification counters */
    /// @{
    uint64_t nProgramsVerified = 0;
    double verifyMsTotal = 0.0;
    /// @}

    std::unique_ptr<cache::ComputeCache> cc;
    std::unique_ptr<Executor> ex;
    std::vector<CompiledLayer> layers;
    std::vector<CompiledStage> stages;
};

} // namespace nc::core

#endif // NC_CORE_COMPILED_MODEL_HH

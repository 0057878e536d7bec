/**
 * @file
 * Pluggable execution backends behind the Engine / CompiledModel API.
 *
 * One compiled network can be answered three ways:
 *
 *  - Reference:  obviously-correct CPU loops (dnn::reference) — the
 *                ground truth every functional path is pinned to.
 *  - Functional: bit-serial array operations through core::Executor,
 *                whose conv, eltwise and max-pool kernels run the
 *                verified in-cache instruction streams on every
 *                array of a pass (per-filter-batch parallelism).
 *  - Analytic:   the paper's cost model (core::CostModel) — timing,
 *                phase breakdowns, and energy, no tensors.
 *
 * Reference and Functional execute tensors through the Backend
 * interface and are bit-exact against each other (the
 * backend-parity test suite enforces it). Analytic is not a Backend:
 * AnalyticBackend only prices, and it answers every run's
 * InferenceReport whichever backend executed the tensors. A
 * compiled model runs every layer on the one tensor backend its
 * engine selects, and all share one common::ThreadPool.
 */

#ifndef NC_CORE_BACKEND_HH
#define NC_CORE_BACKEND_HH

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/report.hh"
#include "dnn/tensor.hh"

namespace nc::core
{

class Executor;
struct CompiledLayer;

/** The three ways a compiled model can execute. */
enum class BackendKind
{
    Reference,
    Functional,
    Analytic,
};

const char *backendKindName(BackendKind k);

/**
 * Parse a backend name ("reference", "functional", "analytic");
 * returns false on unknown names.
 */
bool parseBackendKind(std::string_view name, BackendKind &out);

/**
 * The per-image execution context of one batch slot (§IV-E):
 * runBatch fans N images over the pool concurrently, and every image
 * in flight owns a complete replica of the network's array state —
 * stationary filter bands and scratch arrays alike — at flat-array
 * offset slot * perImageArrays. Kernels add arrayOffset to every
 * array index they touch, so concurrent images never share mutable
 * arrays and outputs are bit-identical to the serial per-image loop
 * for any thread count. Slot 0 (offset 0) is the bands the compile
 * pass placed; run() always executes there.
 */
struct ExecContext
{
    uint64_t arrayOffset = 0; ///< flat-array offset of the replica
};

/**
 * A functional execution strategy for compiled layers. Implementations
 * wrap the existing executors; CompiledModel dispatches every layer
 * to the one backend its engine selected. Every entry point takes
 * the CompiledLayer, which carries the op shape, the prepared
 * kernels, the calibrated requantization scalars, and the layer's own
 * scratch array — the latter is what lets independent branches of one
 * stage execute concurrently without sharing mutable array state —
 * plus the ExecContext naming which image slot's array replica the
 * call runs on (images of one batch execute concurrently, each on
 * its own replica).
 */
class Backend
{
  public:
    virtual ~Backend() = default;

    /**
     * Convolution (or FC-as-1x1-conv) of @p layer on @p in; returns
     * the raw accumulators in [m][oh][ow] order.
     */
    virtual std::vector<uint32_t> conv(CompiledLayer &layer,
                                       const dnn::QTensor &in,
                                       unsigned &out_h,
                                       unsigned &out_w,
                                       const ExecContext &ctx) = 0;

    /** Max pooling with @p layer's window/stride/padding. */
    virtual dnn::QTensor maxPool(CompiledLayer &layer,
                                 const dnn::QTensor &in,
                                 const ExecContext &ctx) = 0;

    /** Average pooling (truncating division; SAME padding divides
     * partial windows by their valid-element count). */
    virtual dnn::QTensor avgPool(CompiledLayer &layer,
                                 const dnn::QTensor &in,
                                 const ExecContext &ctx) = 0;

    /**
     * Residual merge: out = sat8(((a + b) * mult) >> shift) with the
     * layer's calibrated scalars.
     */
    virtual dnn::QTensor eltwiseAdd(CompiledLayer &layer,
                                    const dnn::QTensor &a,
                                    const dnn::QTensor &b,
                                    const ExecContext &ctx) = 0;

    /**
     * Requantize accumulators to bytes: q = sat8((acc * mult) >>
     * shift), the §IV-D fixed-point sequence with @p layer's
     * compile-time calibrated scalars.
     */
    virtual std::vector<uint8_t> requantize(
        CompiledLayer &layer, const std::vector<uint32_t> &acc,
        const ExecContext &ctx) = 0;
};

/**
 * The timing half: wraps CostModel. It executes no tensors, so it is
 * not a Backend. CompiledModel uses it to price every stage once at
 * compile time and to assemble batched reports at run time — which
 * is exactly the compile/run amortization: mapping and tiling are
 * priced once, report assembly is arithmetic.
 */
class AnalyticBackend
{
  public:
    explicit AnalyticBackend(const NeuralCacheConfig &cfg_);

    const CostModel &model() const { return costModel; }

    /** Price one stage (runs mapping/tiling; compile-time only). */
    StageCost stageCost(const dnn::Stage &stage) const;

    /**
     * Assemble the batched report from per-stage costs: filter
     * loading paid once for the batch, per-image phases multiplied
     * out, reserved-way overflow spilled to DRAM, first-layer input
     * streamed from DRAM, and energy metered over the batch wall time
     * (paper §IV-E). @p net must be non-empty, @p stageCosts must
     * price its stages in order, and @p batch must be >= 1. @p bands
     * is the §IV-E banding the caller executes (CompiledModel passes
     * its compile-time plan so the report prices exactly the pass
     * structure runBatch runs); null derives the net-level plan.
     */
    InferenceReport report(const dnn::Network &net,
                           const std::vector<StageCost> &stageCosts,
                           unsigned batch,
                           const mapping::BatchBandPlan *bands =
                               nullptr) const;

  private:
    NeuralCacheConfig cfg;
    CostModel costModel;
};

/**
 * Build a tensor-executing backend. @p ex is required for Functional.
 */
std::unique_ptr<Backend> makeBackend(BackendKind kind, Executor *ex);

} // namespace nc::core

#endif // NC_CORE_BACKEND_HH

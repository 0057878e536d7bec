/**
 * @file
 * The three backends a compiled model can be built for, and the
 * timing class behind every report.
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
 * BackendKind is a property of the compiled model: CompiledModel
 * calls the Reference loops or the Functional kernels itself, every
 * layer on the one kind its engine selected, and the two are
 * bit-exact against each other (the backend-parity test suite
 * enforces it). AnalyticBackend only prices: it answers every run's
 * InferenceReport whichever kind executed the tensors.
 */

#ifndef NC_CORE_BACKEND_HH
#define NC_CORE_BACKEND_HH

#include <string_view>
#include <vector>

#include "core/report.hh"

namespace nc::core
{

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
 * The timing half: wraps CostModel and executes no tensors.
 * CompiledModel uses it to price every stage once at compile time
 * and to assemble batched reports at run time — which is exactly the
 * compile/run amortization: mapping and tiling are priced once,
 * report assembly is arithmetic.
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

} // namespace nc::core

#endif // NC_CORE_BACKEND_HH

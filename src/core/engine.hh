/**
 * @file
 * Engine: the compile-once / run-many front door of the library.
 *
 *     core::EngineOptions opts;            // backend, threads, config
 *     core::Engine engine(opts);
 *     auto model = engine.compile(net);    // mapping + calibration +
 *                                          // placement, paid once
 *     auto r1 = model.run(image);          // execute; r1.output +
 *     auto r2 = model.run(image2);         // r1.report in one call
 *     auto rep = model.report(64);         // batch-64 timing, free
 *
 * One Engine owns one common::ThreadPool; every model it compiles
 * shares it. Weights come from an
 * explicit ModelWeights map or, for synthetic studies, are generated
 * deterministically from options().weightSeed.
 */

#ifndef NC_CORE_ENGINE_HH
#define NC_CORE_ENGINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "core/backend.hh"
#include "core/compiled_model.hh"
#include "sram/faults.hh"

namespace nc::core
{

/** Filter banks by layer (op) name; absent layers get seeded random. */
using ModelWeights = std::map<std::string, dnn::QWeights>;

/** Everything an Engine is configured with. */
struct EngineOptions
{
    /** The backend every layer of a compiled model runs on. */
    BackendKind backend = BackendKind::Functional;
    /** Worker threads shared engine-wide (0 = NC_THREADS / hw). */
    unsigned threads = 0;
    /** Accelerator model configuration (geometry, cost, energy). */
    NeuralCacheConfig config;
    /** Seed for deterministically generated absent weights. */
    uint64_t weightSeed = 0x5eed;
    /**
     * SRAM fault-injection campaign (sram/faults.hh). Disabled by
     * default (no rates, no kill list) — then the fault machinery is
     * never instantiated and execution is bit- and cost-identical to
     * a build without it. The NC_FAULTS environment variable overlays
     * these fields at Engine construction. Fault injection requires a
     * functional backend: the analytic model has no arrays to break,
     * so Analytic + faults is a hard error.
     */
    sram::faults::Config faults;
};

/** Compiles networks into immutable CompiledModels. */
class Engine
{
  public:
    using Options = EngineOptions;

    explicit Engine(Options opts_ = {});

    const Options &options() const { return opts; }

    /**
     * Compile @p net for options().backend, the one backend every
     * layer runs on: validate the topology, run quantization
     * calibration, mapping/tiling, and per-layer program
     * construction exactly once. A degenerate conv or pool shape (a
     * zero extent, window or stride) dies naming the layer on every
     * backend. @p weights names filter banks by layer; layers
     * without one get deterministic seeded random filters. The
     * network must be non-empty. The
     * per-layer weight preparation (bank, plan, requant scalars)
     * fans out over the engine's pool with results identical at any
     * thread count, and several threads may compile on one Engine at
     * once. The §IV-C DRAM image is not built here; build it on
     * demand with mapping::WeightLayout from a compiled layer's op,
     * plan and weights. Functional backends execute whole
     * multi-branch stages (branch outputs channel-concatenate; an
     * eltwise tail merges with the shortcut branch or the stage
     * input) and any conv shape mapping::planFunctionalConv can
     * place.
     */
    CompiledModel compile(const dnn::Network &net,
                          const ModelWeights &weights = {}) const;

  private:
    Options opts;
    std::shared_ptr<common::ThreadPool> pool;
};

} // namespace nc::core

#endif // NC_CORE_ENGINE_HH

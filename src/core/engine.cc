#include "core/engine.hh"

#include <algorithm>
#include <utility>

#include "common/env.hh"
#include "common/logging.hh"
#include "dnn/random.hh"
#include "core/program_verify.hh"
#include "mapping/plan_audit.hh"
#include "mapping/weight_layout.hh"

namespace nc::core
{

namespace
{

/**
 * Decompose 255/acc_max into the 8-bit multiplier and truncating
 * right shift the in-array requantizer executes: q = sat8((acc *
 * mult) >> shift).
 */
void
calibrateFromAccMax(uint64_t acc_max, uint8_t &mult, unsigned &shift)
{
    if (acc_max <= 255) { // identity: accumulators already fit a byte
        mult = 1;
        shift = 0;
        return;
    }

    double ratio = 255.0 / static_cast<double>(acc_max);
    unsigned sh = 0;
    while (sh < 31 &&
           ratio * static_cast<double>(uint64_t(1) << sh) < 128.0)
        ++sh;
    auto m8 = static_cast<uint64_t>(
        ratio * static_cast<double>(uint64_t(1) << sh));
    mult = static_cast<uint8_t>(std::min<uint64_t>(m8, 255));
    shift = sh;
}

/**
 * Quantization calibration (§IV-D, done once at compile): bound the
 * worst-case accumulator by the largest filter's weight sum against
 * all-255 inputs.
 */
void
calibrateRequant(const dnn::QWeights &w, uint8_t &mult,
                 unsigned &shift)
{
    uint64_t acc_max = 0;
    for (unsigned mi = 0; mi < w.m; ++mi) {
        uint64_t sum = 0;
        for (unsigned ci = 0; ci < w.c; ++ci)
            for (unsigned ri = 0; ri < w.r; ++ri)
                for (unsigned si = 0; si < w.s; ++si)
                    sum += w.at(mi, ci, ri, si);
        acc_max = std::max(acc_max, sum * 255);
    }
    calibrateFromAccMax(acc_max, mult, shift);
}

/** The (c, h, w) shape flowing between layers during compilation. */
struct Shape
{
    unsigned c = 0, h = 0, w = 0;
};

} // namespace

Engine::Engine(Options opts_)
    : opts(std::move(opts_)),
      pool(std::make_shared<common::ThreadPool>(opts.threads))
{
    common::checkEnvOnce();
    // NC_FAULTS overlays the programmatic campaign, exactly like
    // NC_THREADS overlays opts.threads (strict parse, fatal on junk).
    opts.faults = sram::faults::configFromEnv(opts.faults);
}

CompiledModel
Engine::compile(const dnn::Network &net,
                const ModelWeights &weights) const
{
    nc_assert(!net.stages.empty(), "Engine::compile: empty network "
              "'%s'", net.name.c_str());

    CompiledModel m;
    m.net = net;
    m.cfg = opts.config;
    m.kind = opts.backend;
    m.pool = pool;

    // 1. Analytic plans + per-stage costs: the mapping/tiling pass,
    //    paid exactly once. report() re-uses these forever.
    m.analytic = std::make_unique<AnalyticBackend>(opts.config);
    m.stageCosts.reserve(net.stages.size());
    for (const auto &stage : net.stages) {
        nc_assert(!stage.branches.empty() &&
                      !stage.branches.front().ops.empty(),
                  "stage '%s' of '%s' has no ops",
                  stage.name.c_str(), net.name.c_str());
        m.stageCosts.push_back(m.analytic->stageCost(stage));
    }

    // Expected input shape: the first op's input.
    {
        const dnn::Op &front = net.stages.front().branches.front()
                                   .ops.front();
        if (front.isConv()) {
            m.inC = front.conv.c;
            m.inH = front.conv.h;
            m.inW = front.conv.w;
        } else if (front.isPool()) {
            m.inC = front.pool.c;
            m.inH = front.pool.h;
            m.inW = front.pool.w;
        } else {
            m.inC = front.elt.c;
            m.inH = front.elt.h;
            m.inW = front.elt.w;
        }
    }

    if (opts.backend == BackendKind::Analytic) {
        // Faults break arrays; the analytic model has none. Failing
        // here beats silently reporting ideal-silicon numbers for a
        // campaign the caller thought was running.
        if (opts.faults.enabled())
            nc_fatal("fault injection configured for '%s', but the "
                     "analytic backend has no arrays to break (use a "
                     "functional backend)", net.name.c_str());
        // Pure timing model: no functional state at all — and no
        // silent discard of filter banks the caller thought mattered.
        nc_assert(weights.empty(),
                  "analytic engines never read weights; %zu banks "
                  "were passed for '%s'", weights.size(),
                  net.name.c_str());
        // No layer placement happens, so the report's §IV-E pass
        // structure comes from the all-functional net-level banding
        // (the same one AnalyticBackend::report derives without a
        // plan).
        m.bandPlan = mapping::planBatchBands(
            net, opts.config.geometry);
        mapping::auditPlanOrDie(m);
        // No prepared kernels exist, but the programs the functional
        // mapper would run are still derivable — verify them, so an
        // illegal canonical stream dies even on analytic compiles.
        verify::VerifySummary vs =
            verify::verifyNetworkProgramsOrDie(net, opts.config);
        m.nProgramsVerified += vs.programsVerified;
        m.verifyMsTotal += vs.verifyMs;
        return m;
    }

    // 2. Functional compilation: validate the topology, calibrate,
    //    lay out weights, and pin every conv layer's filters into its
    //    own band of arrays.
    const cache::Geometry &geom = opts.config.geometry;
    m.cc = std::make_unique<cache::ComputeCache>(geom);
    m.ex = std::make_unique<Executor>(*m.cc, *pool);

    // Fault campaign: arm the injection registry before any array
    // materializes, then march-scan (BIST) so statically broken
    // arrays retire before placement ever sees them — the remap
    // compacts the survivors and everything downstream just plans
    // over fewer interchangeable arrays.
    if (opts.faults.enabled()) {
        m.faultCfg = opts.faults;
        m.cc->configureFaults(opts.faults);
        if (opts.faults.bist) {
            uint64_t retired = m.cc->bistScanAndRemap();
            m.nArraysRetired += retired;
            if (retired > 0)
                nc_inform("BIST retired %llu of %llu arrays "
                          "compiling '%s': %s",
                          static_cast<unsigned long long>(retired),
                          static_cast<unsigned long long>(
                              geom.totalArrays()),
                          net.name.c_str(),
                          m.cc->health()->summary().c_str());
        }
    }

    // Which backends do the layers actually use?
    bool uses_func = opts.backend == BackendKind::Functional;
    bool uses_ref = opts.backend == BackendKind::Reference;
    for (const auto &[name, kind] : opts.layerBackends) {
        nc_assert(kind != BackendKind::Analytic,
                  "layer '%s': per-layer analytic override is "
                  "meaningless in a functional engine", name.c_str());
        uses_func |= kind == BackendKind::Functional;
        uses_ref |= kind == BackendKind::Reference;
    }

    // Runtime repair (canary check -> retire -> re-pin -> retry)
    // guards the arrays the functional layers run on.
    if (opts.faults.enabled())
        m.canaryOn = opts.faults.canary && uses_func;

    // --- Pass A: validate the topology and build the per-layer and
    // per-stage program structure (no array placement yet). ---------
    Shape shape{m.inC, m.inH, m.inW};
    // Conv layers whose weights the parallel step after this walk
    // prepares, each with the caller's bank (null = seeded).
    std::vector<std::pair<size_t, const dnn::QWeights *>> convs;

    for (const auto &stage : net.stages) {
        mapping::StageConcatPlan scp = mapping::planStageConcat(stage);
        // The stage's common branch input must be what the previous
        // stage produced (an FC head flattens CHW into channels).
        bool fc_front =
            stage.branches.front().ops.front().isConv() &&
            stage.branches.front().ops.front().conv.isFullyConnected;
        if (fc_front) {
            nc_assert(scp.input.c == shape.c * shape.h * shape.w,
                      "fc stage '%s' expects %u inputs, previous "
                      "stage produces %ux%ux%u", stage.name.c_str(),
                      scp.input.c, shape.c, shape.h, shape.w);
        } else {
            nc_assert(scp.input.c == shape.c &&
                          scp.input.h == shape.h &&
                          scp.input.w == shape.w,
                      "stage '%s' expects %ux%ux%u input, previous "
                      "stage produces %ux%ux%u", stage.name.c_str(),
                      scp.input.c, scp.input.h, scp.input.w, shape.c,
                      shape.h, shape.w);
        }

        CompiledModel::CompiledStage cstage;
        cstage.shortcutBranch = scp.shortcutBranch;

        for (const auto &branch : stage.branches) {
            CompiledModel::CompiledBranch cbranch;
            cbranch.splitTail = branch.splitTail;
            cbranch.shortcut = branch.shortcut;
            cbranch.endsWithEltwise =
                branch.ops.back().kind == dnn::OpKind::EltwiseAdd;

            for (const auto &op : branch.ops) {
                CompiledLayer layer;
                layer.op = op;
                layer.backend = opts.backend;
                if (auto it = opts.layerBackends.find(op.name());
                    it != opts.layerBackends.end())
                    layer.backend = it->second;

                if (op.isConv()) {
                    const dnn::ConvOp &co = op.conv;
                    nc_assert(co.c > 0 && co.m > 0 && co.r > 0 &&
                                  co.s > 0,
                              "conv '%s': degenerate shape",
                              co.name.c_str());
                    // Only the bit-serial kernels map onto arrays;
                    // the reference backend runs CPU loops of any
                    // shape.
                    layer.funcPlan =
                        mapping::planFunctionalConv(co, geom);
                    nc_assert(layer.backend != BackendKind::Functional ||
                                  layer.funcPlan.fits,
                              "conv '%s' (C=%u RxS=%ux%u) exceeds "
                              "every functional mapping",
                              co.name.c_str(), co.c, co.r, co.s);

                    // Weights: explicit bank, else deterministic
                    // seed.
                    const dnn::QWeights *given = nullptr;
                    if (auto it = weights.find(op.name());
                        it != weights.end()) {
                        const dnn::QWeights &qw = it->second;
                        nc_assert(qw.m == co.m && qw.c == co.c &&
                                      qw.r == co.r && qw.s == co.s,
                                  "weights for '%s' are "
                                  "%ux%ux%ux%u, op wants %ux%ux%ux%u",
                                  co.name.c_str(), qw.m, qw.c, qw.r,
                                  qw.s, co.m, co.c, co.r, co.s);
                        given = &qw;
                    }
                    convs.emplace_back(m.layers.size(), given);
                } else if (op.isPool()) {
                    layer.poolPlan = mapping::planPool(op.pool, geom);
                } else {
                    // Residual merge: both operands are requantized
                    // bytes, so the worst-case accumulator is 510 and
                    // the §IV-D scalars come from the same
                    // calibration the convs use.
                    calibrateFromAccMax(2 * 255, layer.requantMult,
                                        layer.requantShift);
                }

                cbranch.layerIdx.push_back(m.layers.size());
                m.layers.push_back(std::move(layer));
            }
            cstage.branches.push_back(std::move(cbranch));
        }
        m.stages.push_back(std::move(cstage));
        shape = {scp.out.c, scp.out.h, scp.out.w};
    }

    // Every per-layer override and every provided weight bank must
    // have named a real layer — a typo silently running the default
    // backend, or silently substituting seeded random filters, would
    // be a measurement lie.
    for (const auto &[name, kind] : opts.layerBackends)
        nc_assert(m.findLayer(name) != nullptr,
                  "layerBackends override names unknown layer '%s'",
                  name.c_str());
    for (const auto &[name, qw] : weights) {
        const CompiledLayer *l = m.findLayer(name);
        nc_assert(l && l->op.isConv(),
                  "weights provided for '%s', which is not a "
                  "conv/fc layer of '%s'", name.c_str(),
                  net.name.c_str());
    }

    // Per-layer weight preparation, fanned over the pool: the bank,
    // the mapping/tiling plan, the §IV-C transposed DRAM image and
    // the requant scalars. A seeded bank depends only on weightSeed
    // and its layer index, so every artifact is identical at any
    // thread count. stageCost() above already planned each op for
    // its cost; re-deriving the plan here (cheap arithmetic) keeps
    // CostModel's interface unchanged while exposing the artifact.
    pool->parallelFor(convs.size(), [&](size_t t) {
        auto [li, given] = convs[t];
        CompiledLayer &layer = m.layers[li];
        const dnn::ConvOp &co = layer.op.conv;
        if (given) {
            layer.weights = *given;
        } else {
            Rng rng(opts.weightSeed + 0x9e3779b97f4a7c15ull * (li + 1));
            layer.weights =
                dnn::randomQWeights(rng, co.m, co.c, co.r, co.s);
        }
        layer.plan = mapping::planConv(co, geom);
        mapping::WeightLayout wl(co, layer.plan, geom);
        layer.dramImage = wl.dramImage(layer.weights);
        calibrateRequant(layer.weights, layer.requantMult,
                         layer.requantShift);
    });

    // --- Pass B + C: array placement and kernel preparation. ------
    // Shared with the runtime repair path, which re-places the plan
    // over fewer arrays after retirements — compile is just the
    // first placement, over the BIST survivors.
    m.placeAndPrepare(false);

    // 3. Instantiate the backends the layers use.
    if (uses_ref)
        m.refBackend = makeBackend(BackendKind::Reference, m.ex.get());
    if (uses_func)
        m.funcBackend = makeBackend(BackendKind::Functional, m.ex.get());

    // 4. The static band-plan audit: prove every concurrently-live
    //    range disjoint and in-bounds before the model can run.
    //    Unconditional — a placement bug must die here, with names,
    //    not as a corrupted activation ten layers later.
    mapping::auditPlanOrDie(m);

    // 5. The static program verifier: abstractly interpret every
    //    prepared layer's instruction stream (bounds, dataflow,
    //    guard row, latch discipline) and prove its cycle sum equals
    //    the analytic charge bit-exact. Unconditional, like the
    //    audit: a malformed program dies here with its layer name
    //    and instruction index, not mid-inference.
    verify::VerifySummary vs = verify::verifyCompiledModelOrDie(m);
    m.nProgramsVerified += vs.programsVerified;
    m.verifyMsTotal += vs.verifyMs;
    return m;
}

} // namespace nc::core

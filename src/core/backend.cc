#include "core/backend.hh"

#include "common/logging.hh"
#include "core/compiled_model.hh"
#include "core/executor.hh"
#include "core/layer_engine.hh"
#include "dnn/reference.hh"

namespace nc::core
{

const char *
backendKindName(BackendKind k)
{
    switch (k) {
      case BackendKind::Reference:
        return "reference";
      case BackendKind::Functional:
        return "functional";
      case BackendKind::Isa:
        return "isa";
      case BackendKind::Analytic:
        return "analytic";
    }
    return "unknown";
}

bool
parseBackendKind(std::string_view name, BackendKind &out)
{
    if (name == "reference")
        out = BackendKind::Reference;
    else if (name == "functional")
        out = BackendKind::Functional;
    else if (name == "isa")
        out = BackendKind::Isa;
    else if (name == "analytic")
        out = BackendKind::Analytic;
    else
        return false;
    return true;
}

// ---- Analytic -------------------------------------------------------

AnalyticBackend::AnalyticBackend(const NeuralCacheConfig &cfg_)
    : cfg(cfg_), costModel(cfg_.geometry, cfg_.cost, cfg_.dram)
{
}

StageCost
AnalyticBackend::stageCost(const dnn::Stage &stage) const
{
    return costModel.stageCost(stage);
}

InferenceReport
AnalyticBackend::report(const dnn::Network &net,
                        const std::vector<StageCost> &stageCosts,
                        unsigned batch,
                        const mapping::BatchBandPlan *bands) const
{
    nc_assert(batch >= 1, "empty batch for network '%s'",
              net.name.c_str());
    nc_assert(!net.stages.empty(), "empty network '%s'",
              net.name.c_str());
    nc_assert(stageCosts.size() == net.stages.size(),
              "%zu stage costs for %zu stages", stageCosts.size(),
              net.stages.size());

    InferenceReport rep;
    rep.networkName = net.name;
    rep.batch = batch;
    rep.sockets = cfg.sockets;
    rep.stages = stageCosts;

    // Image-parallel pass structure (§IV-E): spare capacity beyond
    // one image's stationary bands runs extra images concurrently,
    // the rest of the batch time-slices — the same arithmetic the
    // functional runBatch fan-out executes.
    mapping::BatchBandPlan local_bands;
    if (!bands) {
        local_bands = mapping::planBatchBands(net, cfg.geometry);
        bands = &local_bands;
    }
    rep.imageSlots = bands->imageSlots;
    rep.batchPasses = bands->passes(batch);

    double filter_ps = 0; // paid once per layer for the whole batch
    double per_image_ps = 0;
    double spill_ps = 0;

    // Reserved-way capacity across all slices buffers layer outputs.
    const cache::Geometry &geom = cfg.geometry;
    double reserved_bytes =
        static_cast<double>(geom.slices) * geom.reservedWayBytes();

    for (size_t i = 0; i < rep.stages.size(); ++i) {
        StageCost &c = rep.stages[i];

        filter_ps += c.phases.filterLoadPs;
        per_image_ps += c.totalPs() - c.phases.filterLoadPs;

        // Batch outputs that overflow the reserved way spill to DRAM
        // and return for the next layer (paper §IV-E); only the
        // overflow beyond the buffered capacity pays the round trip.
        double batch_out =
            static_cast<double>(net.stages[i].outputBytes()) * batch;
        if (batch > 1 && batch_out > reserved_bytes) {
            auto overflow =
                static_cast<uint64_t>(batch_out - reserved_bytes);
            spill_ps += cfg.dram.transferPs(overflow) * 2.0;
            c.dramBytes += 2 * overflow;
        }

        rep.phases += c.phases;
    }

    // First-layer input arrives from DRAM through the TMUs.
    uint64_t image_bytes = net.stages.front().inputBytes();
    double input_dram_ps = cfg.dram.transferPs(image_bytes) * batch;
    rep.stages.front().dramBytes += image_bytes * batch;
    double per_image_share = input_dram_ps / batch;
    rep.stages.front().phases.inputStreamPs += per_image_share;
    rep.phases.inputStreamPs += per_image_share;
    per_image_ps += per_image_share;

    rep.latencyPs = filter_ps + per_image_ps;
    rep.batchPs = filter_ps + per_image_ps * batch + spill_ps;
    rep.spillPs = spill_ps;
    rep.energy = meterEnergy(rep.stages, rep.batchPs, cfg.energy);
    return rep;
}

namespace
{

// ---- Reference ------------------------------------------------------

/** Ground-truth CPU loops; what every functional path is pinned to. */
class ReferenceBackend : public Backend
{
  public:
    // CPU loops carry no array state, so every image slot runs the
    // identical code: the ExecContext is accepted and ignored.
    std::vector<uint32_t>
    conv(CompiledLayer &layer, const dnn::QTensor &in, unsigned &out_h,
         unsigned &out_w, const ExecContext &) override
    {
        return dnn::convQuantUnsigned(in, layer.weights,
                                      layer.op.conv.stride,
                                      layer.op.conv.samePad, out_h,
                                      out_w);
    }

    dnn::QTensor
    maxPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &) override
    {
        const dnn::PoolOp &po = layer.op.pool;
        return dnn::maxPoolQuant(in, po.r, po.s, po.stride,
                                 po.samePad);
    }

    dnn::QTensor
    avgPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &) override
    {
        const dnn::PoolOp &po = layer.op.pool;
        return dnn::avgPoolQuant(in, po.r, po.s, po.stride,
                                 po.samePad);
    }

    dnn::QTensor
    eltwiseAdd(CompiledLayer &layer, const dnn::QTensor &a,
               const dnn::QTensor &b, const ExecContext &) override
    {
        return dnn::eltwiseAddQuant(a, b, layer.requantMult,
                                    layer.requantShift);
    }

    std::vector<uint8_t>
    requantize(CompiledLayer &layer,
               const std::vector<uint32_t> &acc,
               const ExecContext &) override
    {
        // Integer-exact mirror of the in-array sequence: multiply,
        // truncating shift, saturate to 8 bits.
        std::vector<uint8_t> out(acc.size());
        for (size_t i = 0; i < acc.size(); ++i) {
            uint64_t t = (static_cast<uint64_t>(acc[i]) *
                          layer.requantMult) >>
                         layer.requantShift;
            out[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
        }
        return out;
    }
};

// ---- Functional (direct-ALU Executor) -------------------------------

class FunctionalBackend : public Backend
{
  public:
    explicit FunctionalBackend(Executor &ex_) : ex(ex_) {}

    std::vector<uint32_t>
    conv(CompiledLayer &layer, const dnn::QTensor &in, unsigned &out_h,
         unsigned &out_w, const ExecContext &ctx) override
    {
        nc_assert(layer.funcConv.has_value(),
                  "layer '%s' was not prepared for the functional "
                  "backend", layer.op.name().c_str());
        return layer.funcConv->run(in, layer.weights, out_h, out_w,
                                   ctx.arrayOffset);
    }

    dnn::QTensor
    maxPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &ctx) override
    {
        const dnn::PoolOp &po = layer.op.pool;
        return ex.maxPoolAt(layer.scratchArray + ctx.arrayOffset, in,
                            po.r, po.s, po.stride, po.samePad);
    }

    dnn::QTensor
    avgPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &ctx) override
    {
        const dnn::PoolOp &po = layer.op.pool;
        return ex.avgPoolAt(layer.scratchArray + ctx.arrayOffset, in,
                            po.r, po.s, po.stride, po.samePad);
    }

    dnn::QTensor
    eltwiseAdd(CompiledLayer &layer, const dnn::QTensor &a,
               const dnn::QTensor &b, const ExecContext &ctx) override
    {
        nc_assert(layer.funcElt.has_value(),
                  "eltwise '%s' was not prepared for the functional "
                  "backend", layer.op.name().c_str());
        dnn::QTensor out(a.channels(), a.height(), a.width(),
                         a.params());
        out.data() = layer.funcElt->run(a.data(), b.data(),
                                        ctx.arrayOffset);
        return out;
    }

    std::vector<uint8_t>
    requantize(CompiledLayer &layer,
               const std::vector<uint32_t> &acc,
               const ExecContext &ctx) override
    {
        return ex.requantizeAt(layer.scratchArray + ctx.arrayOffset,
                               acc, layer.requantMult,
                               layer.requantShift);
    }

  private:
    Executor &ex;
};

// ---- ISA (broadcast LayerEngine) ------------------------------------

class IsaBackend : public Backend
{
  public:
    IsaBackend(LayerEngine &le_, Executor &ex_) : le(le_), ex(ex_) {}

    std::vector<uint32_t>
    conv(CompiledLayer &layer, const dnn::QTensor &in, unsigned &out_h,
         unsigned &out_w, const ExecContext &ctx) override
    {
        nc_assert(layer.isaConv.has_value(),
                  "layer '%s' was not prepared for the ISA backend",
                  layer.op.name().c_str());
        return layer.isaConv->run(in, out_h, out_w, ctx.slot);
    }

    dnn::QTensor
    maxPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &ctx) override
    {
        // The broadcast MaxInto program sequences VALID and SAME
        // windows alike (edge windows just run shorter programs), so
        // the executor fallback SAME padding used to need is gone.
        const dnn::PoolOp &po = layer.op.pool;
        return le.maxPoolLayerAt(layer.scratchArray + ctx.arrayOffset,
                                 in, po.r, po.s, po.stride,
                                 po.samePad);
    }

    dnn::QTensor
    avgPool(CompiledLayer &layer, const dnn::QTensor &in,
            const ExecContext &ctx) override
    {
        // No broadcast macro for the sum+divide sequence yet; the
        // executor drives the identical bit-serial micro-ops.
        const dnn::PoolOp &po = layer.op.pool;
        return ex.avgPoolAt(layer.scratchArray + ctx.arrayOffset, in,
                            po.r, po.s, po.stride, po.samePad);
    }

    dnn::QTensor
    eltwiseAdd(CompiledLayer &layer, const dnn::QTensor &a,
               const dnn::QTensor &b, const ExecContext &ctx) override
    {
        nc_assert(layer.isaElt.has_value(),
                  "eltwise '%s' was not prepared for the ISA backend",
                  layer.op.name().c_str());
        dnn::QTensor out(a.channels(), a.height(), a.width(),
                         a.params());
        out.data() = layer.isaElt->run(a.data(), b.data(), ctx.slot);
        return out;
    }

    std::vector<uint8_t>
    requantize(CompiledLayer &layer,
               const std::vector<uint32_t> &acc,
               const ExecContext &ctx) override
    {
        return ex.requantizeAt(layer.scratchArray + ctx.arrayOffset,
                               acc, layer.requantMult,
                               layer.requantShift);
    }

  private:
    LayerEngine &le;
    Executor &ex;
};

} // namespace

std::unique_ptr<Backend>
makeBackend(BackendKind kind, Executor *ex, LayerEngine *le)
{
    switch (kind) {
      case BackendKind::Reference:
        return std::make_unique<ReferenceBackend>();
      case BackendKind::Functional:
        nc_assert(ex, "functional backend needs an Executor");
        return std::make_unique<FunctionalBackend>(*ex);
      case BackendKind::Isa:
        nc_assert(ex && le,
                  "ISA backend needs a LayerEngine and an Executor");
        return std::make_unique<IsaBackend>(*le, *ex);
      case BackendKind::Analytic:
        break;
    }
    nc_panic("no functional backend for kind '%s'",
             backendKindName(kind));
}

} // namespace nc::core

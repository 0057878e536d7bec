#include "core/backend.hh"

#include "common/logging.hh"

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

} // namespace nc::core

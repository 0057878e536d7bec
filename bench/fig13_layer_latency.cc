/**
 * @file
 * Figure 13: per-layer inference latency of Inception v3 on the CPU,
 * GPU, and Neural Cache, plus the paper's Conv2D_2b anchor numbers.
 */

#include <cstdio>

#include "baselines/device_model.hh"
#include "core/engine.hh"
#include "dnn/inception_v3.hh"
#include "mapping/plan.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();
    auto cpu = baselines::DeviceModel::xeonE5_2697v3(net);
    auto gpu = baselines::DeviceModel::titanXp(net);
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    auto compiled = core::Engine(opts).compile(net);
    auto rep = compiled.report();

    auto cpu_ms = cpu.stageLatenciesMs(net);
    auto gpu_ms = gpu.stageLatenciesMs(net);

    std::printf("=== Figure 13: latency by layer (ms) ===\n");
    std::printf("%-17s %9s %9s %13s\n", "layer", "cpu", "gpu",
                "neural-cache");
    double ct = 0, gt = 0, nt = 0;
    for (size_t i = 0; i < net.stages.size(); ++i) {
        double nc_ms = rep.stages[i].totalPs() * picoToMs;
        std::printf("%-17s %9.3f %9.3f %13.4f\n",
                    net.stages[i].name.c_str(), cpu_ms[i], gpu_ms[i],
                    nc_ms);
        ct += cpu_ms[i];
        gt += gpu_ms[i];
        nt += nc_ms;
    }
    std::printf("%-17s %9.3f %9.3f %13.4f\n", "total", ct, gt, nt);

    // The paper's §VI-A anchor for Conv2D_2b_3x3.
    const auto &anchor = net.stages[2].branches[0].ops[0].conv;
    auto plan = mapping::planConv(anchor, compiled.config().geometry);
    core::AnalyticBackend analytic(compiled.config());
    const core::CostModel &model = analytic.model();
    double cycles_per_conv = model.macCyclesPerConv(plan) +
                             model.reduceCyclesPerConv(plan);
    std::printf("\nConv2D_2b anchor (paper §VI-A):\n");
    std::printf("  parallel convs  %8llu (paper ~32 thousand)\n",
                (unsigned long long)plan.parallelConvs);
    std::printf("  serial passes   %8llu (paper 43)\n",
                (unsigned long long)plan.serialPasses);
    std::printf("  cycles/conv     %8.0f (paper 2784 = 236x9 + 660)\n",
                cycles_per_conv);
    std::printf("  utilization     %8.1f %% (paper 99.7%%)\n",
                plan.utilization * 100);
    std::printf("  conv time       %8.4f ms (paper 0.0479)\n",
                model.computePs(cycles_per_conv *
                                (double)plan.serialPasses) *
                    picoToMs);
    return 0;
}

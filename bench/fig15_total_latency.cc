/**
 * @file
 * Figure 15: total Inception v3 inference latency and the headline
 * speedups (18.3x over the Xeon E5, 7.7x over the Titan Xp).
 */

#include <cstdio>

#include "baselines/device_model.hh"
#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();
    auto cpu = baselines::DeviceModel::xeonE5_2697v3(net);
    auto gpu = baselines::DeviceModel::titanXp(net);
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    auto rep = core::Engine(opts).compile(net).report();

    double cpu_ms = cpu.totalLatencyMs(net);
    double gpu_ms = gpu.totalLatencyMs(net);
    double nc_ms = rep.latencyMs();

    std::printf("=== Figure 15: total latency on Inception v3 ===\n");
    std::printf("%-14s %12s %12s\n", "device", "latency ms",
                "paper ms");
    std::printf("%-14s %12.2f %12.2f\n", "cpu", cpu_ms, 86.0);
    std::printf("%-14s %12.2f %12.2f\n", "gpu", gpu_ms, 36.19);
    std::printf("%-14s %12.2f %12.2f\n", "neural-cache", nc_ms, 4.72);

    std::printf("\nspeedup vs cpu: %5.1fx (paper 18.3x)\n",
                cpu_ms / nc_ms);
    std::printf("speedup vs gpu: %5.1fx (paper  7.7x)\n",
                gpu_ms / nc_ms);
    return 0;
}

/**
 * @file
 * Table III: total energy and average power for CPU, GPU, and Neural
 * Cache on one Inception v3 inference.
 */

#include <cstdio>

#include "baselines/device_model.hh"
#include "core/engine.hh"
#include "core/report.hh"
#include "dnn/inception_v3.hh"

#include <iostream>

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

    std::printf("=== Table III: energy and power (measured | paper) "
                "===\n");
    std::printf("%-14s %10s %10s %12s %12s\n", "device", "energy J",
                "paper J", "avg power W", "paper W");
    std::printf("%-14s %10.3f %10.3f %12.2f %12.2f\n", "cpu",
                cpu.energyJ(net), 9.137, cpu.params().measuredPowerW,
                105.56);
    std::printf("%-14s %10.3f %10.3f %12.2f %12.2f\n", "gpu",
                gpu.energyJ(net), 4.087, gpu.params().measuredPowerW,
                112.87);
    std::printf("%-14s %10.3f %10.3f %12.2f %12.2f\n", "neural-cache",
                rep.energy.totalJ(), 0.246, rep.avgPowerW(), 52.92);

    std::printf("\nefficiency vs cpu: %.1fx (paper 37.1x), vs gpu: "
                "%.1fx (paper 16.6x)\n",
                cpu.energyJ(net) / rep.energy.totalJ(),
                gpu.energyJ(net) / rep.energy.totalJ());

    std::printf("\nneural-cache energy components:\n");
    core::printEnergy(std::cout, rep);
    return 0;
}

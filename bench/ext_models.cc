/**
 * @file
 * Extension: Neural Cache on AlexNet and VGG-16 alongside Inception.
 *
 * The paper evaluates Inception v3 only; these runs exercise the same
 * mapper and cost model on workloads with very different balance —
 * AlexNet (filter splitting, huge FCs), VGG-16 (deep 3x3 stacks,
 * 138 M parameters so filter streaming dominates even more).
 */

#include <cstdio>

#include "baselines/device_model.hh"
#include "core/engine.hh"
#include "dnn/inception_v3.hh"
#include "dnn/models_extra.hh"

int
main()
{
    using namespace nc;

    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    core::Engine engine(opts);

    std::printf("=== Extension: more workloads on Neural Cache ===\n");
    std::printf("%-14s %8s %9s %10s %10s %9s %9s %9s\n", "network",
                "GMACs", "weightsMB", "latency ms", "thr inf/s",
                "energy J", "power W", "filter%%");
    for (const dnn::Network &net :
         {dnn::inceptionV3(), dnn::alexNet(), dnn::vgg16(),
          dnn::resNet18()}) {
        auto model = engine.compile(net);
        auto rep = model.report();
        auto batch = model.report(64);
        std::printf("%-14s %8.2f %9.1f %10.2f %10.0f %9.3f %9.1f "
                    "%8.1f%%\n",
                    net.name.c_str(),
                    static_cast<double>(net.macs()) * 1e-9,
                    static_cast<double>(net.filterBytes()) * 1e-6,
                    rep.latencyMs(), batch.throughput(),
                    rep.energy.totalJ(), rep.avgPowerW(),
                    100.0 * rep.phases.filterLoadPs /
                        rep.phases.totalPs());
    }

    std::printf("\nshape check: weight-heavy VGG-16 is filter-load "
                "bound; batching matters most there.\n");
    for (const dnn::Network &net : {dnn::vgg16()}) {
        auto model = engine.compile(net);
        std::printf("%s throughput: batch 1 %.0f, 16 %.0f, 64 %.0f "
                    "inf/s\n",
                    net.name.c_str(), model.report(1).throughput(),
                    model.report(16).throughput(),
                    model.report(64).throughput());
    }
    return 0;
}

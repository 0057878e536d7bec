/**
 * @file
 * Figure 14: Neural Cache inference-latency breakdown by phase, with
 * the paper's published shares alongside.
 */

#include <cstdio>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    auto rep = core::Engine(opts).compile(net).report();

    const auto &p = rep.phases;
    double total = p.totalPs();
    struct Row
    {
        const char *name;
        double ps;
        double paper_pct;
    };
    Row rows[] = {
        {"filter load", p.filterLoadPs, 46.0},
        {"input streaming", p.inputStreamPs, 15.0},
        {"output transfer", p.outputXferPs, 4.0},
        {"MACs", p.macPs, 20.0},
        {"reduction", p.reducePs, 10.0},
        {"quantization", p.quantPs, 5.0},
        {"pooling", p.poolPs, 0.04},
    };

    std::printf("=== Figure 14: latency breakdown (batch 1) ===\n");
    std::printf("%-17s %10s %9s %9s\n", "phase", "ms", "share",
                "paper");
    for (const Row &r : rows) {
        std::printf("%-17s %10.4f %8.2f%% %8.2f%%\n", r.name,
                    r.ps * picoToMs, 100.0 * r.ps / total,
                    r.paper_pct);
    }
    std::printf("%-17s %10.4f\n", "total", total * picoToMs);
    return 0;
}

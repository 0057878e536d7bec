/**
 * @file
 * Ablation: paper-calibrated vs analytic arithmetic cycle models.
 *
 * The default mode reproduces the paper's per-conv constants (236
 * cycles/MAC, 660-cycle reduction); analytic mode counts our exact
 * micro-op schedules from bitserial/cost.hh. Both must produce the
 * same per-layer *shape*; the analytic arithmetic is roughly 2x
 * leaner, as the per-stage ratios this prints show.
 */

#include <cstdio>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();

    core::EngineOptions paper_opts;
    paper_opts.backend = core::BackendKind::Analytic;
    core::EngineOptions ana_opts = paper_opts;
    ana_opts.config.cost.mode = core::ArithMode::Analytic;

    auto pr = core::Engine(paper_opts).compile(net).report();
    auto ar = core::Engine(ana_opts).compile(net).report();

    std::printf("=== Ablation: arithmetic cycle model ===\n");
    std::printf("%-17s %16s %16s\n", "metric", "paper-calibrated",
                "analytic");
    std::printf("%-17s %16.3f %16.3f\n", "mac ms",
                pr.phases.macPs * picoToMs, ar.phases.macPs * picoToMs);
    std::printf("%-17s %16.3f %16.3f\n", "reduction ms",
                pr.phases.reducePs * picoToMs,
                ar.phases.reducePs * picoToMs);
    std::printf("%-17s %16.3f %16.3f\n", "total ms", pr.latencyMs(),
                ar.latencyMs());

    std::printf("\nper-stage arithmetic ratio "
                "(paper-calibrated / analytic):\n");
    for (size_t i = 0; i < net.stages.size(); ++i) {
        double p = pr.stages[i].phases.macPs +
                   pr.stages[i].phases.reducePs;
        double a = ar.stages[i].phases.macPs +
                   ar.stages[i].phases.reducePs;
        if (a <= 0)
            continue;
        std::printf("  %-17s %6.2fx\n", net.stages[i].name.c_str(),
                    p / a);
    }
    return 0;
}

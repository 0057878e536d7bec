/**
 * @file
 * Ablation: double-buffered input streaming.
 *
 * The spare word lines the mapper leaves in each array
 * (ConvPlan::freeRows) can stage pass N+1's input window while pass N
 * computes, hiding most of the 15% input-streaming share of Figure 14
 * behind arithmetic. The paper charges streaming serially; this
 * quantifies what the overlap optimization would buy.
 */

#include <cstdio>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"
#include "dnn/models_extra.hh"

int
main()
{
    using namespace nc;

    std::printf("=== Ablation: input-stream / compute overlap ===\n");
    std::printf("%-14s | %10s %10s | %10s %10s | %8s\n", "network",
                "input ms", "total ms", "input ms", "total ms",
                "gain");
    std::printf("%-14s | %21s | %21s |\n", "", "serial (paper)",
                "double-buffered");

    core::EngineOptions serial_opts;
    serial_opts.backend = core::BackendKind::Analytic;
    core::EngineOptions overlap_opts = serial_opts;
    overlap_opts.config.cost.overlapInputStream = true;
    core::Engine serial(serial_opts), overlap(overlap_opts);

    for (const dnn::Network &net :
         {dnn::inceptionV3(), dnn::alexNet(), dnn::vgg16()}) {
        auto s = serial.compile(net).report();
        auto o = overlap.compile(net).report();
        std::printf("%-14s | %10.3f %10.3f | %10.3f %10.3f | "
                    "%7.1f%%\n",
                    net.name.c_str(),
                    s.phases.inputStreamPs * picoToMs, s.latencyMs(),
                    o.phases.inputStreamPs * picoToMs, o.latencyMs(),
                    100.0 * (s.latencyMs() - o.latencyMs()) /
                        s.latencyMs());
    }
    std::printf("\nthe mapper's spare word lines (free rows after "
                "the Figure-10 layout) are what makes the staging "
                "buffer free.\n");
    return 0;
}

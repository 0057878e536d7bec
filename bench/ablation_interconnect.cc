/**
 * @file
 * Ablation: data-movement machinery (paper §IV-C).
 *
 * Three levers the paper motivates individually:
 *  - the 64-bit bank latch that halves replicated input fills,
 *  - DRAM effective bandwidth (filter loading dominates at 46%),
 *  - the compute clock (2.5 GHz chosen conservatively vs the 4 GHz
 *    access clock).
 */

#include <cstdio>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();
    core::EngineOptions analytic;
    analytic.backend = core::BackendKind::Analytic;

    std::printf("=== Ablation: interconnect & clocks ===\n\n");

    {
        core::EngineOptions without = analytic;
        // The latch halves replicated in-bank fills; model its loss
        // by doubling the input stream.
        without.config.cost.inputStreamFactor *= 2.0;
        auto a = core::Engine(analytic).compile(net).report();
        auto b = core::Engine(without).compile(net).report();
        std::printf("bank latch        on: input %.3f ms, total %.3f "
                    "ms\n",
                    a.phases.inputStreamPs * picoToMs, a.latencyMs());
        std::printf("bank latch       off: input %.3f ms, total %.3f "
                    "ms\n\n",
                    b.phases.inputStreamPs * picoToMs, b.latencyMs());
    }

    std::printf("%-22s %12s %12s %9s\n", "dram effective bw",
                "filter ms", "total ms", "share");
    for (double gbps : {6.0, 11.0, 16.0, 25.6, 51.2}) {
        core::EngineOptions opts = analytic;
        opts.config.dram.effectiveBw.bytesPerSec = gbps * 1e9;
        auto rep = core::Engine(opts).compile(net).report();
        std::printf("%18.1f GB/s %12.3f %12.3f %8.1f%%\n", gbps,
                    rep.phases.filterLoadPs * picoToMs,
                    rep.latencyMs(),
                    100.0 * rep.phases.filterLoadPs /
                        rep.phases.totalPs());
    }

    std::printf("\n%-22s %12s\n", "compute clock", "total ms");
    for (double ghz : {1.0, 2.0, 2.5, 3.0, 4.0}) {
        core::EngineOptions opts = analytic;
        opts.config.cost.timing.computeClock.freqHz = ghz * 1e9;
        auto rep = core::Engine(opts).compile(net).report();
        std::printf("%18.1f GHz %12.3f\n", ghz, rep.latencyMs());
    }
    std::printf("\n(the paper runs compute at 2.5 GHz for 6-sigma "
                "robustness although the arrays access at 4 GHz)\n");
    return 0;
}

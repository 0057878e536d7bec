/**
 * @file
 * Ablation: operand bit-width sweep.
 *
 * "bit-serial operation allows for flexible operand bit-width, which
 * can be advantageous in DNNs where the required bit width can vary
 * from layer to layer" (§III-A). Arithmetic time scales ~linearly
 * (add) and ~quadratically (multiply) with precision; this sweep
 * shows the whole-network effect in analytic mode.
 */

#include <cstdio>

#include "bitserial/cost.hh"
#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();

    std::printf("=== Ablation: operand precision (analytic mode) "
                "===\n");
    std::printf("%6s %10s %12s %12s %12s\n", "bits", "mac cyc",
                "mac ms", "reduce ms", "arith ms");
    for (unsigned bits : {2u, 4u, 6u, 8u, 12u, 16u}) {
        core::EngineOptions opts;
        opts.backend = core::BackendKind::Analytic;
        opts.config.cost.mode = core::ArithMode::Analytic;
        opts.config.cost.bits = bits;
        opts.config.cost.accumulatorBits = 3 * bits;
        auto rep = core::Engine(opts).compile(net).report();
        std::printf("%6u %10llu %12.4f %12.4f %12.4f\n", bits,
                    (unsigned long long)bitserial::implMacScratchCycles(
                        bits, 3 * bits),
                    rep.phases.macPs * picoToMs,
                    rep.phases.reducePs * picoToMs,
                    (rep.phases.macPs + rep.phases.reducePs) *
                        picoToMs);
    }
    std::printf("\nMAC cycles grow ~quadratically with precision "
                "(bit-serial multiply is O(n^2)); 8-bit is the "
                "paper's operating point.\n");
    return 0;
}

/**
 * @file
 * Table IV: batch-1 inference latency as LLC capacity scales from
 * 35 MB (14 slices) to 45 MB (18) and 60 MB (24).
 */

#include <cstdio>

#include "core/engine.hh"
#include "dnn/inception_v3.hh"

int
main()
{
    using namespace nc;

    auto net = dnn::inceptionV3();
    struct Row
    {
        cache::Geometry geom;
        double paper_ms;
    };
    Row rows[] = {{cache::Geometry::xeonE5_35MB(), 4.72},
                  {cache::Geometry::scaled45MB(), 4.12},
                  {cache::Geometry::scaled60MB(), 3.79}};

    std::printf("=== Table IV: scaling with cache capacity "
                "(batch 1) ===\n");
    std::printf("%-16s %10s %10s %10s %10s\n", "capacity",
                "latency ms", "paper ms", "ratio", "paper");
    double base = 0, paper_base = 0;
    for (const Row &r : rows) {
        core::EngineOptions opts;
        opts.backend = core::BackendKind::Analytic;
        opts.config.geometry = r.geom;
        auto rep = core::Engine(opts).compile(net).report();
        double ms = rep.latencyMs();
        if (base == 0) {
            base = ms;
            paper_base = r.paper_ms;
        }
        std::printf("%-16s %10.2f %10.2f %10.3f %10.3f\n",
                    r.geom.name.c_str(), ms, r.paper_ms, ms / base,
                    r.paper_ms / paper_base);
    }
    std::printf("\nfilter loading is capacity-independent; compute "
                "and input streaming scale with slice count (§VI-D)\n");
    return 0;
}

/**
 * @file
 * Define your own CNN and run it through the compile-once / run-many
 * Engine:
 *
 *  - describe the topology with the dnn:: builders,
 *  - Engine::compile() calibrates quantization, maps every layer onto
 *    the cache, and pins the filters stationary in their arrays,
 *  - CompiledModel::run() executes functionally (bit-serial array
 *    operations) and answers the timing model from the same call,
 *  - a second compile with the reference backend pins the bit-serial
 *    outputs against ground-truth CPU loops.
 *
 * The network is a small LeNet-style classifier on a 16x16 input;
 * swap the layer list to explore your own topology.
 *
 * Usage: custom_cnn [--backend functional|reference]
 *                   [--threads N] [--seed S]
 */

#include <cstdio>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/engine.hh"
#include "dnn/random.hh"

int
main(int argc, char **argv)
{
    using namespace nc;

    std::string backend_name = "functional";
    unsigned threads = 0;
    uint64_t seed = 7;
    common::ArgParser args("custom_cnn",
                           "A custom CNN through the Engine API");
    args.addString("backend", &backend_name, "functional|reference");
    args.addUnsigned("threads", &threads,
                     "worker threads (0 = auto)");
    args.addUint64("seed", &seed, "weight/input seed");
    args.parse(argc, argv);

    core::BackendKind backend;
    if (!core::parseBackendKind(backend_name, backend) ||
        backend == core::BackendKind::Analytic)
        nc_fatal("--backend must be functional or reference (got "
                 "'%s')", backend_name.c_str());

    // The topology: conv -> pool -> conv -> pool -> 1x1 head.
    dnn::Network net;
    net.name = "custom-lenet";
    net.stages.push_back(dnn::singleOpStage(
        "conv1", dnn::conv("conv1", 16, 16, 3, 3, 3, 8)));
    net.stages.push_back(dnn::singleOpStage(
        "pool1", dnn::maxPool("pool1", 16, 16, 8, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "conv2", dnn::conv("conv2", 8, 8, 8, 3, 3, 16)));
    net.stages.push_back(dnn::singleOpStage(
        "pool2", dnn::maxPool("pool2", 8, 8, 16, 2, 2, 2)));
    net.stages.push_back(dnn::singleOpStage(
        "head", dnn::conv("head", 4, 4, 16, 1, 1, 10)));

    // Weights and an input image, reproducible from --seed.
    Rng rng(seed);
    core::ModelWeights weights;
    weights.emplace("conv1", dnn::randomQWeights(rng, 8, 3, 3, 3));
    weights.emplace("conv2", dnn::randomQWeights(rng, 16, 8, 3, 3));
    weights.emplace("head", dnn::randomQWeights(rng, 10, 16, 1, 1));
    auto img = dnn::randomQTensor(rng, 3, 16, 16);

    // Compile once: mapping, §IV-C weight layout, calibration, and
    // stationary filter loading all happen here.
    core::EngineOptions opts;
    opts.backend = backend;
    opts.threads = threads;
    core::Engine engine(opts);
    auto model = engine.compile(net, weights);

    std::printf("== %s through the %s backend ==\n", net.name.c_str(),
                core::backendKindName(backend));
    const auto *head = model.findLayer("head");
    uint64_t arrays = backend == core::BackendKind::Reference
                          ? 0 // CPU loops pin nothing
                          : head->baseArray + head->weights.m;
    std::printf("compiled %zu layers; %llu arrays hold stationary "
                "filters\n",
                model.compiledLayers().size(),
                (unsigned long long)arrays);

    // Run many: the second call re-uses everything the first set up.
    auto r1 = model.run(img);
    auto r2 = model.run(img);
    std::printf("run twice on one image: outputs %s\n",
                r1.output.data() == r2.output.data()
                    ? "bit-identical (compile-once, run-many)"
                    : "MISMATCH");

    // Pin against the reference backend (ground-truth CPU loops).
    core::EngineOptions ref_opts = opts;
    ref_opts.backend = core::BackendKind::Reference;
    auto ref_model = core::Engine(ref_opts).compile(net, weights);
    auto ref = ref_model.run(img);
    std::printf("vs reference backend: %s\n",
                r1.output.data() == ref.output.data()
                    ? "bit-exact"
                    : "MISMATCH");

    std::printf("\nclass logits (10 lanes):");
    for (unsigned ci = 0; ci < r1.output.channels(); ++ci)
        std::printf(" %3u", r1.output.at(ci, 0, 0));
    std::printf("\n");

    // The analytic answer arrived with the same run() call.
    std::printf("\ntiming model: %.4f ms end-to-end on a 35MB LLC "
                "(tiny nets waste the cache: per-layer fixed costs "
                "dominate and utilization is low)\n",
                r1.report.latencyMs());
    if (auto *cc = model.computeCache()) {
        std::printf("simulated arrays: %zu, lock-step compute cycles: "
                    "%llu (%.1f us at 2.5 GHz)\n",
                    cc->materializedCount(),
                    (unsigned long long)cc->lockstepCycles(),
                    cc->lockstepCycles() / 2.5e9 * 1e6);
    }
    return 0;
}

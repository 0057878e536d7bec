/**
 * @file
 * Static program lint: run the compile-time bit-serial program
 * verifier (core/program_verify.hh) over a named network and dump
 * per-layer verification stats — instructions, rows defined, peak
 * live rows, and the static cycle account. Check class 5 proved each
 * conv, eltwise and maxpool account equal to its CostModel closed
 * form bit-exact; requant programs are exempt from it.
 *
 * Engine::compile already runs the same verifier unconditionally and
 * dies on the first violation; this tool re-runs it with the
 * reporting sink so the per-layer numbers are visible, which makes it
 * the CI smoke that every shipped network (including the full-res
 * Inception v3 streaming compile) stays provably legal.
 *
 * Usage: program_lint [--network lenet|inception|inception-small|
 *                       alexnet|vgg16|resnet18]
 *                     [--backend analytic|functional|reference]
 *                     [--threads N]
 */

#include <cstdio>
#include <vector>

#include "common/argparse.hh"
#include "common/logging.hh"
#include "core/engine.hh"
#include "core/program_verify.hh"
#include "dnn/inception_v3.hh"
#include "dnn/models_extra.hh"

namespace
{

/** The custom_cnn LeNet-style topology: a fast default. */
nc::dnn::Network
lenet()
{
    using namespace nc;
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
    return net;
}

nc::dnn::Network
netByName(const std::string &name)
{
    using namespace nc;
    if (name == "lenet")
        return lenet();
    if (name == "inception")
        return dnn::inceptionV3(); // full 299x299: streaming regime
    if (name == "inception-small")
        return dnn::inceptionV3(75);
    if (name == "alexnet")
        return dnn::alexNet();
    if (name == "vgg16")
        return dnn::vgg16();
    if (name == "resnet18")
        return dnn::resNet18();
    nc_fatal("unknown --network '%s' (want lenet, inception, "
             "inception-small, alexnet, vgg16, or resnet18)",
             name.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nc;

    std::string network = "lenet";
    std::string backend_name = "analytic";
    unsigned threads = 0;
    common::ArgParser args("program_lint",
                           "Static bit-serial program verifier stats");
    args.addString("network", &network,
                   "lenet|inception|inception-small|alexnet|vgg16|"
                   "resnet18");
    args.addString("backend", &backend_name,
                   "analytic|functional|reference");
    args.addUnsigned("threads", &threads, "worker threads (0 = auto)");
    args.parse(argc, argv);

    core::BackendKind backend;
    if (!core::parseBackendKind(backend_name, backend))
        nc_fatal("--backend must be analytic, functional, or reference "
                 "(got '%s')", backend_name.c_str());

    dnn::Network net = netByName(network);

    core::EngineOptions opts;
    opts.backend = backend;
    opts.threads = threads;
    core::Engine engine(opts);

    // compile() runs the verifier unconditionally and dies on the
    // first violation; a second pass with the reporting sink makes
    // the per-layer stats visible. The analytic backend verifies the
    // canonical programs without placing the model; a functional
    // compile verifies the streams its kernels run, built with each
    // layer's scalars, plus the audited band placement.
    std::vector<core::verify::LayerProgramReport> reports;
    core::verify::VerifySummary sum;
    if (backend == core::BackendKind::Analytic) {
        engine.compile(net);
        sum = core::verify::verifyNetworkProgramsOrDie(
            net, opts.config, &reports);
    } else {
        auto model = engine.compile(net);
        sum = core::verify::verifyCompiledModelOrDie(model, &reports);
        std::printf("compile verified %llu programs in %.3f ms\n",
                    (unsigned long long)model.programsVerified(),
                    model.verifyMs());
    }

    std::printf("== %s: %zu layer programs verified (%s backend) ==\n",
                net.name.c_str(), reports.size(),
                core::backendKindName(backend));
    std::printf("%-28s %-8s %6s %6s %9s %13s\n", "layer", "kind",
                "insts", "defs", "max_live", "static_cycles");
    for (const auto &r : reports) {
        std::printf("%-28s %-8s %6zu %6zu %9u %13llu\n",
                    r.layer.c_str(), r.kind.c_str(),
                    r.stats.instructions, r.stats.defs,
                    r.stats.maxLiveRows,
                    (unsigned long long)r.stats.staticCycles);
    }
    std::printf("\nverified %llu programs in %.3f ms; every conv, "
                "eltwise and maxpool static cycle sum matched its "
                "CostModel closed form bit-exact (requant is exempt)\n",
                (unsigned long long)sum.programsVerified,
                sum.verifyMs);
    return 0;
}

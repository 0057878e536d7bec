/**
 * @file
 * A non-DNN use of the compute cache: classic image filtering.
 *
 * The paper pitches Neural Cache as a general data-parallel
 * co-processor ("improves performance of many other workloads when
 * not functioning as a DNN accelerator", §VII). This example
 * compiles a 3x3 box blur as a one-layer "network" — the Engine's
 * quantization calibration derives the x227 >> 11 (~ divide by 9)
 * normalizer from the all-ones kernel automatically — runs it
 * in-cache, then extracts a bright-region mask with a raw bit-serial
 * compare, and renders the stages as ASCII art.
 *
 * Usage: image_filter [--backend functional|reference]
 */

#include <cstdio>
#include <vector>

#include "bitserial/alu.hh"
#include "common/argparse.hh"
#include "common/logging.hh"
#include "core/engine.hh"

namespace
{

/** A synthetic 24x24 image: two bright blobs on a dark gradient. */
nc::dnn::QTensor
makeImage()
{
    nc::dnn::QTensor img(1, 24, 24);
    for (unsigned y = 0; y < 24; ++y)
        for (unsigned x = 0; x < 24; ++x) {
            int v = static_cast<int>(2 * y);
            auto blob = [&](int cy, int cx, int bright) {
                int dy = int(y) - cy, dx = int(x) - cx;
                if (dy * dy + dx * dx < 20)
                    v += bright;
            };
            blob(7, 6, 180);
            blob(16, 17, 120);
            img.at(0, y, x) =
                static_cast<uint8_t>(std::min(v, 255));
        }
    return img;
}

void
render(const char *title, const std::vector<uint8_t> &pix, unsigned h,
       unsigned w)
{
    static const char shades[] = " .:-=+*#%@";
    std::printf("%s\n", title);
    for (unsigned y = 0; y < h; ++y) {
        for (unsigned x = 0; x < w; ++x)
            std::putchar(shades[pix[y * w + x] * 9 / 255]);
        std::putchar('\n');
    }
    std::putchar('\n');
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace nc;
    namespace bs = bitserial;

    std::string backend_name = "functional";
    common::ArgParser args("image_filter",
                           "In-cache box blur + threshold mask");
    args.addString("backend", &backend_name, "functional|reference");
    args.parse(argc, argv);

    core::BackendKind backend;
    if (!core::parseBackendKind(backend_name, backend) ||
        backend == core::BackendKind::Analytic)
        nc_fatal("--backend must be functional or reference (got "
                 "'%s')", backend_name.c_str());

    auto img = makeImage();
    render("input (synthetic, 24x24):",
           {img.data().begin(), img.data().end()}, 24, 24);

    // The blur as a one-conv network: an all-ones kernel. The
    // compile-time calibration bounds the accumulator at 9 * 255 and
    // derives q = (acc * 227) >> 11, i.e. the divide-by-9 normalize.
    dnn::Network net;
    net.name = "box-blur";
    net.stages.push_back(dnn::singleOpStage(
        "blur", dnn::conv("blur", 24, 24, 1, 3, 3, 1)));

    dnn::QWeights box(1, 1, 3, 3);
    for (auto &v : box.data)
        v = 1;
    core::ModelWeights weights;
    weights.emplace("blur", box);

    core::EngineOptions opts;
    opts.backend = backend;
    core::Engine engine(opts);
    auto model = engine.compile(net, weights);

    const auto *blur = model.findLayer("blur");
    auto result = model.run(img);
    const std::vector<uint8_t> &blurred = result.output.data();
    std::printf("calibrated normalizer: x %u >> %u (~ /9)\n\n",
                blur->requantMult, blur->requantShift);
    render("3x3 box blur (in-cache conv + requantize):", blurred, 24,
           24);

    // Threshold: mask = blurred >= 140, via bit-serial compareGE and
    // a predicated write of white — the raw ALU layer, on a private
    // array.
    std::vector<uint8_t> mask(blurred.size(), 0);
    sram::Array arr;
    unsigned cols = arr.cols();
    bs::RowAllocator rows(arr.rows());
    bs::VecSlice v = rows.alloc(8), thr = rows.alloc(8);
    bs::VecSlice cmp = rows.alloc(8), out = rows.alloc(8);
    for (size_t base = 0; base < blurred.size(); base += cols) {
        size_t n = std::min<size_t>(cols, blurred.size() - base);
        std::vector<uint64_t> vals(n);
        for (size_t i = 0; i < n; ++i)
            vals[i] = blurred[base + i];
        bs::storeVector(arr, v, vals);
        bs::storeVector(arr, thr,
                        std::vector<uint64_t>(n, 140));
        bs::zero(arr, out);
        bs::compareGE(arr, v, thr, cmp); // tag = (pixel >= 140)
        for (unsigned j = 0; j < 8; ++j)
            arr.opOnes(out.row(j), /*pred=*/true);
        for (size_t i = 0; i < n; ++i)
            mask[base + i] = static_cast<uint8_t>(
                bs::loadLane(arr, out, static_cast<unsigned>(i)));
    }
    render("bright-region mask (compareGE 140 + predicated write):",
           mask, 24, 24);

    uint64_t cycles = arr.computeCycles();
    if (auto *cc = model.computeCache())
        cycles += cc->lockstepCycles();
    std::printf("lock-step compute cycles for the whole pipeline: "
                "%llu (%.1f us at 2.5 GHz)\n",
                (unsigned long long)cycles, cycles / 2.5e9 * 1e6);
    return 0;
}

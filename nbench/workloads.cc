#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>

#include "batch_net.hh"
#include "bitserial/layout.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "core/engine.hh"
#include "core/program_verify.hh"
#include "dnn/inception_v3.hh"
#include "dnn/random.hh"
#include "mapping/plan.hh"
#include "mapping/plan_audit.hh"
#include "mapping/weight_layout.hh"
#include "open_loop.hh"
#include "serve/server.hh"
#include "serve/wire.hh"
#include "sram/array.hh"
#include "stats.hh"

namespace nc::nbench
{

// ---------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------

Run::Run(std::string workload_, uint64_t seed_, double seconds_,
         bool trace_, unsigned nproc_, unsigned threads_)
    : workload(std::move(workload_)), seed(seed_), seconds(seconds_),
      trace(trace_), nproc(nproc_), threads(threads_), tracer(trace_)
{
}

void
Run::add(Kind kind, const std::string &name, double value,
         const std::string &unit)
{
    metrics.push_back({name, value, unit, kind, false});
}

void
Run::addModeled(Kind kind, const std::string &name, double value,
                const std::string &unit)
{
    metrics.push_back({name, value, unit, kind, true});
}

void
Run::timing(Kind kind, const std::string &name,
            const std::vector<double> &samples, const std::string &unit)
{
    add(kind, name, median(samples), unit);
    Quartiles q = quartiles(samples);
    std::printf("#   %s: %zu samples, quartiles %.4g / %.4g / %.4g %s",
                name.c_str(), samples.size(), q.q1, q.q2, q.q3,
                unit.c_str());
    Tail t = tailOf(samples);
    if (t.valid)
        std::printf(", p%g %.4g %s (%zu beyond)\n", t.percentile,
                    t.value, unit.c_str(), t.beyond);
    else
        std::printf(", too few for a tail percentile\n");
}

void
Run::check(bool ok, const std::string &what)
{
    if (ok)
        return;
    correct = false;
    std::printf("# CHECK FAILED: %s\n", what.c_str());
}

void
Run::count(uint64_t n, uint64_t bad)
{
    attempted += n;
    failed += bad;
}

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

double
cpuSeconds()
{
    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(u.ru_utime.tv_usec +
                                      u.ru_stime.tv_usec);
}

std::vector<double>
toSeconds(const std::vector<double> &ms)
{
    std::vector<double> s;
    for (double v : ms)
        s.push_back(v * 1e-3);
    return s;
}

/** A per-run input stream: seed and stream index in, Rng out. */
Rng
seededRng(uint64_t seed, uint64_t stream)
{
    return Rng(seed * 0x9e3779b97f4a7c15ull + stream);
}

/**
 * Median wall ms of one call of @p fn, each pass a span (@p cat,
 * @p name). Cheap calls repeat inside a pass until it lasts ~1 ms,
 * so span upkeep stays out of the timing and the span count stays
 * small; passes continue to at least three and 50 ms in all, unless
 * three would exceed 3 s (then at least one).
 */
double
callMs(Tracer &tr, const char *cat, const char *name,
       const std::function<void()> &fn)
{
    std::vector<double> per_call;
    double total = 0;
    unsigned reps = 1;
    while (per_call.empty() || (per_call.size() < 3 && total < 3000) ||
           total < 50) {
        auto t0 = Clock::now();
        {
            Span s(tr, cat, name);
            for (unsigned i = 0; i < reps; ++i)
                fn();
        }
        double ms = msSince(t0);
        per_call.push_back(ms / reps);
        total += ms;
        if (ms < 1.0)
            reps = static_cast<unsigned>(
                std::min(1e6, reps / std::max(ms, 1e-6) + 1));
    }
    return median(per_call);
}

/**
 * The gated latency, lat_mean_ms: the mean of the per-call samples,
 * i.e. timed wall time over calls. A shared host's effective CPU
 * speed swings up to ~1.7x for seconds at a time with other tenants'
 * load, so per-call times mix a fast and a slow mode; a run's median
 * (or any quantile) jumps between the modes with the share of its
 * calls that hit a slow spell, while the mean moves in proportion to
 * that share. The median and tail stay on the printed lines.
 */
void
gatedLatency(Run &run, const std::vector<double> &ms)
{
    run.add(Kind::EndToEnd, "lat_mean_ms",
            std::accumulate(ms.begin(), ms.end(), 0.0) /
                static_cast<double>(std::max<size_t>(1, ms.size())),
            "ms");
}

/** Kind for per-layer numbers: the traced result, else printed. */
Kind
layerKind(const Run &run)
{
    return run.trace ? Kind::PerLayer : Kind::Printed;
}

/**
 * The host-side timed loop shared by the functional workloads: call
 * @p fn until the run's seconds are spent (at least @p min_calls
 * times); returns per-call wall ms and records pool busy share.
 */
std::vector<double>
timedLoop(Run &run, unsigned engine_threads, unsigned min_calls,
          const std::function<void(size_t)> &fn)
{
    std::vector<double> ms;
    double cpu0 = cpuSeconds();
    auto w0 = Clock::now();
    while (ms.size() < min_calls || msSince(w0) < run.seconds * 1e3) {
        auto t0 = Clock::now();
        fn(ms.size());
        ms.push_back(msSince(t0));
    }
    double wall_s = msSince(w0) * 1e-3;
    run.add(layerKind(run), "common.pool_busy_pct",
            100.0 * (cpuSeconds() - cpu0) / (wall_s * engine_threads),
            "%");
    return ms;
}

/** Modeled numbers (what the simulated chip would take). */
void
modelMetrics(Run &run, const core::CompiledModel &model)
{
    Kind k = layerKind(run);
    core::InferenceReport r1 = model.report(1);
    core::InferenceReport r256 = model.report(256);
    const core::PhaseBreakdown &p = r1.phases;
    const std::pair<const char *, double> phases_ps[] = {
        {"model.phase.filter_load_ms", p.filterLoadPs},
        {"model.phase.input_stream_ms", p.inputStreamPs},
        {"model.phase.output_xfer_ms", p.outputXferPs},
        {"model.phase.mac_ms", p.macPs},
        {"model.phase.reduce_ms", p.reducePs},
        {"model.phase.quant_ms", p.quantPs},
        {"model.phase.pool_ms", p.poolPs},
    };
    // Modeled times carry their own unit: they repeat exactly on every
    // run by design, unlike any host time.
    run.addModeled(k, "model.latency_ms", r1.latencyMs(), "modeled_ms");
    run.addModeled(k, "model.images_per_s_b256", r256.throughput(),
                   "modeled_1/s");
    run.addModeled(k, "model.energy_j", r1.energy.totalJ(), "modeled_J");
    for (const auto &[name, ps] : phases_ps)
        run.addModeled(k, name, ps * picoToMs, "modeled_ms");
}

/**
 * sram and bitserial kernels on one 256x256 array at the dispatched
 * SIMD tier: opAdd rate and storeVector/loadVector lane rates.
 */
void
kernelMetrics(Run &run)
{
    sram::Array arr(256, 256);
    Rng rng = seededRng(run.seed, 7);
    for (unsigned r = 0; r < 256; ++r)
        for (unsigned wi = 0; wi < 4; ++wi)
            arr.rowMut(r).setWord(wi, rng.uniformBits(64));
    const unsigned kOps = 20000, kVecs = 2000;
    Tracer &tr = run.tracer;
    double add_ms = callMs(tr, "sram", "Array::opAdd x20000", [&] {
        unsigned r = 0;
        for (unsigned i = 0; i < kOps; ++i) {
            arr.opAdd(r, r + 1, r + 2);
            r = (r + 1) % 250;
        }
    });
    bitserial::VecSlice slice{200, 8};
    std::vector<uint64_t> values(256);
    for (auto &v : values)
        v = rng.uniformBits(8);
    double store_ms = callMs(tr, "bitserial", "storeVector x2000", [&] {
        for (unsigned i = 0; i < kVecs; ++i)
            bitserial::storeVector(arr, slice, values);
    });
    uint64_t sink = 0;
    double load_ms = callMs(tr, "bitserial", "loadVector x2000", [&] {
        for (unsigned i = 0; i < kVecs; ++i)
            sink += bitserial::loadVector(arr, slice)[i % 256];
    });
    run.check(bitserial::loadVector(arr, slice) == values,
              "loadVector does not return what storeVector wrote");
    run.add(Kind::PerLayer, "sram.opadd_mops", kOps / add_ms * 1e-3,
            "Mops/s");
    run.add(Kind::PerLayer, "bitserial.store_vector_mlanes_per_s",
            kVecs * 256.0 / store_ms * 1e-3, "Mlanes/s");
    run.add(Kind::PerLayer, "bitserial.load_vector_mlanes_per_s",
            kVecs * 256.0 / load_ms * 1e-3, "Mlanes/s");
    std::printf("#   (load checksum %llu)\n",
                static_cast<unsigned long long>(sink));
}

/** One conv layer's weight-layout inputs. */
struct ConvBank
{
    dnn::ConvOp op;
    mapping::ConvPlan plan;
    dnn::QWeights weights;
};

/**
 * The compile-time calls, each timed as its own span on the
 * workload's own network: the mapping planners, the §IV-C DRAM image,
 * the plan audit, the program verifier, and the analytic stage cost.
 * Reports each pass's median, their coverage of @p setup_ms, and
 * which one dominates.
 */
void
compileCallMetrics(Run &run, const dnn::Network &net,
                   const core::CompiledModel &model,
                   const core::NeuralCacheConfig &cfg,
                   const std::vector<ConvBank> &banks, double setup_ms)
{
    const cache::Geometry &geom = cfg.geometry;
    Tracer &tr = run.tracer;
    bool analytic = model.backend() == core::BackendKind::Analytic;

    // A pass calls one function over the whole network.
    auto eachOp = [&](const std::function<void(const dnn::Op &)> &fn) {
        for (const auto &stage : net.stages)
            for (const auto &branch : stage.branches)
                for (const auto &op : branch.ops)
                    fn(op);
    };
    auto planner = [&](const char *name, const char *span,
                       const std::function<void()> &fn) {
        double ms = callMs(tr, "mapping", span, fn);
        run.add(Kind::Printed, std::string("mapping.plan_ms.") + name, ms,
                "ms");
        return ms;
    };
    double plan_ms =
        planner("planStageConcat", "planStageConcat (all stages)",
                [&] {
                    for (const auto &stage : net.stages)
                        (void)mapping::planStageConcat(stage);
                }) +
        planner("planConv", "planConv (all convs)",
                [&] {
                    eachOp([&](const dnn::Op &op) {
                        if (op.isConv())
                            (void)mapping::planConv(op.conv, geom);
                    });
                }) +
        planner("planFunctionalConv", "planFunctionalConv (all convs)",
                [&] {
                    eachOp([&](const dnn::Op &op) {
                        if (op.isConv())
                            (void)mapping::planFunctionalConv(op.conv,
                                                              geom);
                    });
                }) +
        planner("planPool", "planPool (all pools)",
                [&] {
                    eachOp([&](const dnn::Op &op) {
                        if (op.isPool())
                            (void)mapping::planPool(op.pool, geom);
                    });
                }) +
        planner("planBatchBands", "planBatchBands", [&] {
            (void)mapping::planBatchBands(net, geom);
        });
    uint64_t image_bytes = 0;
    double dram_ms = callMs(tr, "mapping", "WeightLayout::dramImage", [&] {
        image_bytes = 0;
        for (const auto &b : banks) {
            mapping::WeightLayout wl(b.op, b.plan, geom);
            image_bytes += wl.dramImage(b.weights).size();
        }
    });
    bool audit_ok = true;
    double audit_ms = callMs(tr, "mapping", "auditPlan", [&] {
        audit_ok = audit_ok && mapping::auditPlan(model).ok();
    });
    run.check(audit_ok, "auditPlan found violations");
    uint64_t verified = 0;
    double verify_ms =
        analytic
            ? callMs(tr, "core", "verifyNetworkProgramsOrDie",
                     [&] {
                         verified =
                             core::verify::verifyNetworkProgramsOrDie(
                                 net, cfg)
                                 .programsVerified;
                     })
            : callMs(tr, "core", "verifyCompiledModelOrDie", [&] {
                  verified =
                      core::verify::verifyCompiledModelOrDie(model)
                          .programsVerified;
              });
    core::AnalyticBackend ab(cfg);
    double stage_ms = callMs(tr, "core", "AnalyticBackend::stageCost", [&] {
        for (const auto &stage : net.stages)
            (void)ab.stageCost(stage);
    });

    run.add(Kind::PerLayer, "mapping.plan_ms", plan_ms, "ms");
    run.add(Kind::PerLayer, "mapping.dram_image_ms", dram_ms, "ms");
    run.add(Kind::PerLayer, "mapping.audit_ms", audit_ms, "ms");
    run.add(Kind::PerLayer, "core.verify_ms", verify_ms, "ms");
    run.add(Kind::PerLayer, "core.stage_cost_ms", stage_ms, "ms");
    run.add(Kind::PerLayer, "core.programs_verified",
            static_cast<double>(verified), "count");
    std::printf("#   (DRAM images: %llu bytes)\n",
                static_cast<unsigned long long>(image_bytes));

    // What each backend's compile actually calls: an analytic compile
    // prices stages (planning inside stageCost), audits and verifies,
    // but builds no DRAM image and runs no functional planner.
    std::vector<std::pair<const char *, double>> parts = {
        {"core.stage_cost_ms", stage_ms},
        {"core.verify_ms", verify_ms},
        {"mapping.audit_ms", audit_ms}};
    if (!analytic) {
        parts.push_back({"mapping.plan_ms", plan_ms});
        parts.push_back({"mapping.dram_image_ms", dram_ms});
    }
    double covered = 0;
    for (auto &p : parts)
        covered += p.second;
    run.add(Kind::PerLayer, "core.setup_coverage_pct",
            100.0 * covered / setup_ms, "%");
    auto top = *std::max_element(
        parts.begin(), parts.end(),
        [](auto &a, auto &b) { return a.second < b.second; });
    std::printf("# setup: %s is the largest measured part, %.3f ms of "
                "a %.3f ms setup (%.1f%%)\n",
                top.first, top.second, setup_ms,
                100.0 * top.second / setup_ms);
}

/**
 * Lockstep cycles per call must match across the calls of a run and
 * across every traced and untraced run of a workload in this build
 * tree: the first run records them, later runs compare.
 */
void
lockstepCheck(Run &run, const std::vector<uint64_t> &per_call,
              const std::string &state_dir)
{
    bool same = std::adjacent_find(per_call.begin(), per_call.end(),
                                   std::not_equal_to<>()) ==
                per_call.end();
    run.check(same, "lockstep cycles differ between calls");
    if (per_call.empty())
        return;
    uint64_t cyc = per_call.front();
    run.addModeled(Kind::Printed, "core.lockstep_cycles_per_call",
            static_cast<double>(cyc), "count");
    if (state_dir.empty())
        return;
    std::string path = state_dir + "/lockstep-" + run.workload + ".txt";
    if (std::FILE *f = std::fopen(path.c_str(), "r")) {
        unsigned long long prev = 0;
        bool read = std::fscanf(f, "%llu", &prev) == 1;
        std::fclose(f);
        run.check(read && prev == cyc,
                  "lockstep cycles per call " + std::to_string(cyc) +
                      " differ from an earlier run's " +
                      std::to_string(prev) + " (" + path + ")");
    } else if (std::FILE *w = std::fopen(path.c_str(), "w")) {
        std::fprintf(w, "%llu\n", static_cast<unsigned long long>(cyc));
        std::fclose(w);
    }
}

/** Filter bytes written per call by layers that re-pin each run. */
uint64_t
streamedFilterBytes(const core::CompiledModel &model)
{
    uint64_t bytes = 0;
    for (const auto &l : model.compiledLayers())
        if (l.op.isConv() && l.bandArrays > 0 && !l.bandResident)
            bytes += l.weights.data.size();
    return bytes;
}

std::vector<ConvBank>
banksOf(const core::CompiledModel &model)
{
    std::vector<ConvBank> banks;
    for (const auto &l : model.compiledLayers())
        if (l.op.isConv())
            banks.push_back({l.op.conv, l.plan, l.weights});
    return banks;
}

} // namespace

// ---------------------------------------------------------------------
// inception75-stream
// ---------------------------------------------------------------------

void
runInception75Stream(Run &run)
{
    const dnn::Network net = dnn::inceptionV3(75);
    const unsigned kImages = 4, kSetups = 3, kMinCalls = 3;
    Rng rng = seededRng(run.seed, 1);
    std::vector<dnn::QTensor> images;
    for (unsigned i = 0; i < kImages; ++i)
        images.push_back(dnn::randomQTensor(rng, 3, 75, 75));
    const uint64_t weight_seed = seededRng(run.seed, 2).uniformBits(64);

    // Ground truth, untimed: the reference backend (CPU loops) on the
    // same net and weights (both engines share the weight seed).
    std::vector<std::vector<uint8_t>> golden;
    {
        core::EngineOptions ro;
        ro.backend = core::BackendKind::Reference;
        ro.threads = run.threads;
        ro.weightSeed = weight_seed;
        core::Engine engine(ro);
        auto ref = engine.compile(net);
        for (const auto &img : images)
            golden.push_back(ref.run(img).output.data());
    }

    core::EngineOptions fo;
    fo.backend = core::BackendKind::Functional;
    fo.threads = run.threads;
    fo.weightSeed = weight_seed;
    std::optional<core::CompiledModel> model;
    std::vector<double> setup_ms;
    for (unsigned k = 0; k < kSetups; ++k) {
        model.reset();
        auto t0 = Clock::now();
        Span s(run.tracer, "core", "Engine::compile");
        core::Engine engine(fo);
        model.emplace(engine.compile(net));
        setup_ms.push_back(msSince(t0));
    }
    run.check(model->batchBands().imageSlots == 1,
              "inception-75 is expected to stream (one image slot)");

    cache::ComputeCache *cc = model->computeCache();
    std::vector<uint64_t> cycles;
    uint64_t prev = cc->lockstepCycles();
    uint64_t bad = 0;
    std::vector<double> call_ms =
        timedLoop(run, run.threads, kMinCalls, [&](size_t i) {
            core::InferenceResult r;
            {
                Span s(run.tracer, "core", "CompiledModel::run");
                r = model->run(images[i % kImages]);
            }
            bad += r.output.data() != golden[i % kImages];
            uint64_t now = cc->lockstepCycles();
            cycles.push_back(now - prev);
            prev = now;
        });
    run.count(call_ms.size(), bad);
    run.check(bad == 0, std::to_string(bad) +
                            " functional outputs differ from the "
                            "reference backend");

    run.timing(Kind::EndToEnd, "setup_s", toSeconds(setup_ms), "s");
    run.timing(Kind::Printed, "lat_p50_ms", call_ms, "ms");
    gatedLatency(run, call_ms);
    run.add(Kind::Printed, "images_per_s",
            1e3 * static_cast<double>(call_ms.size()) /
                std::accumulate(call_ms.begin(), call_ms.end(), 0.0),
            "1/s");
    lockstepCheck(run, cycles, run.stateDir);
    if (!cycles.empty())
        run.add(Kind::Printed, "core.host_ns_per_lockstep_cycle",
                median(call_ms) * 1e6 /
                    static_cast<double>(cycles.front()),
                "ns");
    run.add(Kind::Printed, "bitserial.filter_bytes_stored_per_call",
            static_cast<double>(streamedFilterBytes(*model)), "bytes");
    modelMetrics(run, *model);
    if (run.trace) {
        kernelMetrics(run);
        compileCallMetrics(run, net, *model, fo.config, banksOf(*model),
                           median(setup_ms));
    }
}

// ---------------------------------------------------------------------
// batchnet-resident / batchnet-serve-open shared setup
// ---------------------------------------------------------------------

namespace
{

const unsigned kBatch = 256;

/** The seeded batch of the batchnet workloads. */
std::vector<dnn::QTensor>
batchImages(uint64_t seed)
{
    Rng rng = seededRng(seed, 3);
    std::vector<dnn::QTensor> images;
    for (unsigned i = 0; i < kBatch; ++i)
        images.push_back(dnn::randomQTensor(rng, 8, 12, 12));
    return images;
}

struct BatchSetup
{
    std::optional<core::CompiledModel> model;
    std::vector<double> setupMs;   ///< compile + pinning warm-up pass
    double lastWarmupMs = 0;       ///< the kept model's warm-up pass
    std::vector<dnn::QTensor> warmupOut; ///< the kept model's outputs
};

/**
 * Set up several times and keep the last model: each setup is the
 * compile plus the first runBatch over the whole batch, which lazily
 * pins one filter replica per image slot it fans out to — everything
 * paid once before the first timed call.
 */
BatchSetup
setUpBatchnet(Run &run, const dnn::Network &net,
              const std::vector<dnn::QTensor> &images, uint64_t weights)
{
    const unsigned kSetups = 5;
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Functional;
    opts.threads = run.threads;
    opts.weightSeed = weights;
    BatchSetup st;
    for (unsigned k = 0; k < kSetups; ++k) {
        st.model.reset();
        auto t0 = Clock::now();
        {
            Span s(run.tracer, "core", "Engine::compile");
            core::Engine engine(opts);
            st.model.emplace(engine.compile(net));
        }
        auto w0 = Clock::now();
        Span s(run.tracer, "core", "CompiledModel::runBatch (warm-up)");
        st.warmupOut = st.model->runBatch(images).outputs;
        st.lastWarmupMs = msSince(w0);
        st.setupMs.push_back(msSince(t0));
    }
    return st;
}

} // namespace

// ---------------------------------------------------------------------
// batchnet-resident
// ---------------------------------------------------------------------

void
runBatchnetResident(Run &run)
{
    const dnn::Network net = benchnet::batchFunctionalNet();
    const auto images = batchImages(run.seed);
    const uint64_t weight_seed = seededRng(run.seed, 4).uniformBits(64);

    // Ground truth, untimed: a one-thread engine's serial run() loop.
    std::vector<std::vector<uint8_t>> golden;
    {
        core::EngineOptions so;
        so.backend = core::BackendKind::Functional;
        so.threads = 1;
        so.weightSeed = weight_seed;
        core::Engine engine(so);
        auto serial = engine.compile(net);
        for (const auto &img : images)
            golden.push_back(serial.run(img).output.data());
    }
    auto mismatches = [&](const std::vector<dnn::QTensor> &outs) {
        uint64_t bad = outs.size() != golden.size();
        for (size_t i = 0; i < outs.size() && i < golden.size(); ++i)
            bad += outs[i].data() != golden[i];
        return bad;
    };

    BatchSetup st = setUpBatchnet(run, net, images, weight_seed);
    core::CompiledModel &model = *st.model;
    run.check(mismatches(st.warmupOut) == 0,
              "warm-up runBatch differs from the serial run() loop");
    run.check(model.batchBands().resident &&
                  model.batchBands().imageSlots >= kBatch,
              "batchnet is expected resident with >= 256 image slots");

    cache::ComputeCache *cc = model.computeCache();
    std::vector<uint64_t> cycles;
    uint64_t prev = cc->lockstepCycles();
    uint64_t bad = 0;
    std::vector<double> call_ms =
        timedLoop(run, run.threads, 3, [&](size_t) {
            core::BatchInferenceResult r;
            {
                Span s(run.tracer, "core", "CompiledModel::runBatch");
                r = model.runBatch(images);
            }
            bad += mismatches(r.outputs);
            uint64_t now = cc->lockstepCycles();
            cycles.push_back(now - prev);
            prev = now;
        });
    run.count(call_ms.size() * kBatch, bad);
    run.check(bad == 0, std::to_string(bad) +
                            " batch outputs differ from the serial "
                            "run() loop");

    run.timing(Kind::EndToEnd, "setup_s", toSeconds(st.setupMs), "s");
    run.timing(Kind::Printed, "lat_p50_ms", call_ms, "ms");
    gatedLatency(run, call_ms);
    run.add(Kind::Printed, "images_per_s",
            1e3 * kBatch * static_cast<double>(call_ms.size()) /
                std::accumulate(call_ms.begin(), call_ms.end(), 0.0),
            "1/s");
    run.add(Kind::Printed, "core.replica_pin_ms",
            st.lastWarmupMs - median(call_ms), "ms");
    lockstepCheck(run, cycles, run.stateDir);
    if (!cycles.empty())
        run.add(Kind::Printed, "core.host_ns_per_lockstep_cycle",
                median(call_ms) * 1e6 /
                    static_cast<double>(cycles.front()),
                "ns");
    run.add(Kind::Printed, "bitserial.filter_bytes_stored_per_call",
            static_cast<double>(streamedFilterBytes(model)), "bytes");
    modelMetrics(run, model);
    if (run.trace) {
        kernelMetrics(run);
        core::EngineOptions defaults;
        compileCallMetrics(run, net, model, defaults.config,
                           banksOf(model), median(st.setupMs));
    }
}

// ---------------------------------------------------------------------
// batchnet-serve-open
// ---------------------------------------------------------------------

namespace
{

/** Serving configuration and traffic of the open-loop workload. */
const unsigned kDeadlineMs = 2, kMaxInflight = 256;
const double kLightRps = 50, kHeavyRps = 200;
/** Bursty traffic: this many requests due at once, every period. */
const unsigned kBurstSize = 64;
const double kBurstPeriodMs = 500;
/** The rate ladder and the tail-latency limit a step must meet. */
const double kLadderRps[] = {60, 120, 180, 240};
const double kSloMs = 20;

/** Request k's pool image: a pure function of (seed, k). */
std::vector<size_t>
pickImages(uint64_t seed, uint64_t first, size_t n)
{
    std::vector<size_t> pick(n);
    for (size_t k = 0; k < n; ++k)
        pick[k] = static_cast<size_t>(
            seededRng(seed, 1000 + first + k).uniformBits(8) % kBatch);
    return pick;
}

} // namespace

void
runBatchnetServeOpen(Run &run)
{
    const dnn::Network net = benchnet::batchFunctionalNet();
    const auto images = batchImages(run.seed);
    const uint64_t weight_seed = seededRng(run.seed, 4).uniformBits(64);

    // The warm-up runBatch of the kept model is the direct answer every
    // served tensor must equal.
    BatchSetup st = setUpBatchnet(run, net, images, weight_seed);
    core::CompiledModel &model = *st.model;

    serve::ServerOptions sopts;
    sopts.batcher.deadlineMs = kDeadlineMs;
    sopts.batcher.maxInflight = kMaxInflight;
    serve::InferenceServer server(model, sopts);

    uint64_t next_id = 1;
    double cpu0 = cpuSeconds();
    auto w0 = Clock::now();
    serve::BatcherStats b0 = server.batcher().stats();
    auto phase = [&](const Schedule &when) {
        size_t n = when.dueMs.size();
        auto pick = pickImages(run.seed, next_id, n);
        OpenLoopResult r = runOpenLoop(server, images, st.warmupOut, pick,
                                       when, next_id, run.tracer);
        next_id += n;
        run.count(n, r.failed());
        return r;
    };
    // Fixed budget split: light and heavy a quarter each, bursts (the
    // gated traffic) 30%, the ladder the rest in equal steps.
    const size_t steps = std::size(kLadderRps);
    const double step_s = 0.2 * run.seconds / steps;
    OpenLoopResult light =
        phase(Schedule::steady(kLightRps, 0.25 * run.seconds));
    OpenLoopResult heavy =
        phase(Schedule::steady(kHeavyRps, 0.25 * run.seconds));
    OpenLoopResult burst = phase(
        Schedule::bursts(kBurstSize, kBurstPeriodMs, 0.3 * run.seconds));
    double max_ok_rps = 0;
    for (double rps : kLadderRps) {
        OpenLoopResult step = phase(Schedule::steady(rps, step_s));
        std::vector<double> lat = step.latenciesMs();
        Tail t = tailOf(lat);
        double tail = t.valid       ? t.value
                      : lat.empty() ? 0
                                    : *std::max_element(lat.begin(),
                                                        lat.end());
        bool ok = step.failed() == 0 && !step.backlogGrowing() &&
                  tail <= kSloMs;
        std::printf("#   ladder %.0f req/s: tail %.3f ms%s%s -> %s\n",
                    rps, tail, step.failed() ? ", failures" : "",
                    step.backlogGrowing() ? ", backlog growing" : "",
                    ok ? "meets SLO" : "misses SLO");
        if (!ok)
            break; // higher rates only queue deeper
        max_ok_rps = rps;
    }
    double wall_s = msSince(w0) * 1e-3;
    serve::BatcherStats b1 = server.batcher().stats();
    double busy = 100.0 * (cpuSeconds() - cpu0) / (wall_s * run.threads);
    server.shutdown();

    run.check(light.failed() + heavy.failed() + burst.failed() == 0,
              "served requests failed, were rejected or mismatched");
    run.timing(Kind::EndToEnd, "setup_s", toSeconds(st.setupMs), "s");
    // The gated latency is the bursts': each burst is one pass fanned
    // out over every pool thread, so it moves in proportion to the
    // serving path's cost. The light rate's one-image passes run on a
    // single core, whose speed swings most on a shared host, and the
    // heavy rate sits near the knee, where a small slowdown grows the
    // queue.
    gatedLatency(run, burst.latenciesMs());
    const std::pair<const char *, const OpenLoopResult *> phases[] = {
        {".light", &light}, {".heavy", &heavy}, {".burst", &burst}};
    for (const auto &[rate_c, ph] : phases) {
        const std::string rate = rate_c;
        std::vector<double> lat = ph->latenciesMs();
        run.timing(Kind::Printed, "lat_p50_ms" + rate, lat, "ms");
        run.add(Kind::Printed, "lat_mean_ms" + rate,
                std::accumulate(lat.begin(), lat.end(), 0.0) /
                    static_cast<double>(std::max<size_t>(1, lat.size())),
                "ms");
        Tail t = tailOf(lat);
        run.add(Kind::Printed, "lat_tail_ms" + rate, t.valid ? t.value : 0,
                "ms");
        std::vector<double> lags = ph->lagsMs();
        Tail lt = tailOf(lags);
        run.add(Kind::Printed, "serve.gen_lag_ms" + rate,
                lt.valid ? lt.value
                         : *std::max_element(lags.begin(), lags.end()),
                "ms");
        if (generatorLagging(lags, ph->intervalMs))
            std::printf("# WARNING: the generator lagged its %s "
                        "schedule; latencies there are suspect\n",
                        rate_c + 1);
        // Where a request's time went, from the frames' report slices
        // and the client's clock.
        std::vector<double> queue, exec, delivery;
        for (const auto &s : ph->samples) {
            if (!s.received || s.status != serve::wire::Status::Ok)
                continue;
            queue.push_back(s.queueMs);
            exec.push_back(s.latencyMs - s.queueMs);
            delivery.push_back(s.receiptMs - s.sentMs - s.latencyMs);
        }
        run.add(Kind::Printed, "serve.queue_ms_p50" + rate, median(queue),
                "ms");
        run.add(Kind::Printed, "serve.exec_ms_p50" + rate, median(exec),
                "ms");
        run.add(Kind::Printed, "serve.delivery_ms_p50" + rate,
                median(delivery), "ms");
    }
    run.add(Kind::Printed, "max_rps_under_slo", max_ok_rps, "1/s");
    std::printf("#   (SLO: tail latency <= %.0f ms, no failures, no "
                "growing backlog; ladder steps of %.2f s)\n",
                kSloMs, step_s);
    uint64_t passes = b1.passes - b0.passes;
    run.add(Kind::Printed, "serve.mean_occupancy",
            passes ? static_cast<double>(b1.served - b0.served) /
                         static_cast<double>(passes)
                   : 0,
            "count");
    run.add(Kind::Printed, "serve.deadline_flush_pct",
            passes ? 100.0 *
                         static_cast<double>(b1.deadlineFlushes -
                                             b0.deadlineFlushes) /
                         static_cast<double>(passes)
                   : 0,
            "%");
    run.add(layerKind(run), "common.pool_busy_pct", busy, "%");
    modelMetrics(run, model);
    if (run.trace) {
        // Wire framing of one request and one response, per call.
        serve::wire::RequestFrame req;
        req.id = 1;
        req.input = images[0];
        serve::wire::ResponseFrame rsp;
        rsp.id = 1;
        rsp.output = st.warmupOut[0];
        const unsigned kFrames = 2000;
        std::vector<uint8_t> bytes;
        Tracer &tr = run.tracer;
        double enc_ms = callMs(tr, "serve", "wire::encode x2000", [&] {
            for (unsigned i = 0; i < kFrames; ++i) {
                bytes.clear();
                serve::wire::encodeRequest(req, bytes);
                serve::wire::encodeResponse(rsp, bytes);
            }
        });
        std::vector<uint8_t> req_bytes, rsp_bytes;
        serve::wire::encodeRequest(req, req_bytes);
        serve::wire::encodeResponse(rsp, rsp_bytes);
        bool decoded = true;
        double dec_ms = callMs(tr, "serve", "wire::decode x2000", [&] {
            std::string err;
            serve::wire::RequestFrame rq;
            serve::wire::ResponseFrame rp;
            for (unsigned i = 0; i < kFrames; ++i)
                decoded = decoded &&
                          serve::wire::decodeRequest(
                              std::span(req_bytes).subspan(4), rq,
                              err) &&
                          serve::wire::decodeResponse(
                              std::span(rsp_bytes).subspan(4), rp, err);
        });
        run.check(decoded, "wire frames failed to decode");
        run.add(Kind::Printed, "serve.wire_encode_us",
                enc_ms * 1e3 / kFrames, "us");
        run.add(Kind::Printed, "serve.wire_decode_us",
                dec_ms * 1e3 / kFrames, "us");
        kernelMetrics(run);
        core::EngineOptions defaults;
        compileCallMetrics(run, net, model, defaults.config,
                           banksOf(model), median(st.setupMs));
    }
}

// ---------------------------------------------------------------------
// inception299-analytic
// ---------------------------------------------------------------------

namespace
{

/** The paper's reported values the modeled chip is compared with. */
const double kPaperLatencyMs = 4.72;   // Fig. 15, batch 1
const double kPaperImagesPerS = 604;   // Fig. 16, batch 256
const double kPaperEnergyJ = 0.246;    // Table III
/** §VI-A Conv2D_2b_3x3 anchor: 2784 = 236 x 9 + 660 cycles/conv. */
const double kAnchorCyclesPerConv = 2784;
const uint64_t kAnchorSerialPasses = 43;

} // namespace

void
runInception299Analytic(Run &run)
{
    const dnn::Network net = dnn::inceptionV3();
    // run.threads concurrent callers, each compiling on its own
    // one-thread engine (an analytic compile runs on the calling
    // thread): the same per-call work, sampled across every core.
    core::EngineOptions opts;
    opts.backend = core::BackendKind::Analytic;
    opts.threads = 1;

    struct Caller
    {
        std::vector<double> compileMs, sweepMs;
        std::vector<double> latencyPs; ///< report(1) of each compile
        uint64_t unverified = 0;
    };
    std::vector<Caller> callers(run.threads);
    double cpu0 = cpuSeconds();
    auto w0 = Clock::now();
    auto loop = [&](Caller &c) {
        while (c.compileMs.size() < 3 ||
               msSince(w0) < run.seconds * 1e3) {
            auto t0 = Clock::now();
            std::optional<core::CompiledModel> m;
            {
                Span s(run.tracer, "core", "Engine::compile");
                core::Engine engine(opts);
                m.emplace(engine.compile(net));
            }
            c.compileMs.push_back(msSince(t0));
            t0 = Clock::now();
            {
                Span s(run.tracer, "core", "CompiledModel::report x256");
                for (unsigned b = 1; b <= 256; ++b) {
                    core::InferenceReport r = m->report(b);
                    if (b == 1)
                        c.latencyPs.push_back(r.latencyPs);
                }
            }
            c.sweepMs.push_back(msSince(t0));
            c.unverified += m->programsVerified() == 0;
        }
    };
    {
        std::vector<std::jthread> others;
        for (size_t i = 1; i < callers.size(); ++i)
            others.emplace_back(loop, std::ref(callers[i]));
        loop(callers[0]);
    }
    double wall_s = msSince(w0) * 1e-3;
    run.add(layerKind(run), "common.pool_busy_pct",
            100.0 * (cpuSeconds() - cpu0) / (wall_s * run.threads), "%");

    // One untimed compile for the modeled numbers; every timed compile
    // must have priced the network exactly as it does.
    core::Engine engine(opts);
    const core::CompiledModel model = engine.compile(net);
    const double latency_ps = model.report(1).latencyPs;
    std::vector<double> compile_ms, sweep_ms;
    uint64_t bad = 0;
    for (const Caller &c : callers) {
        compile_ms.insert(compile_ms.end(), c.compileMs.begin(),
                          c.compileMs.end());
        sweep_ms.insert(sweep_ms.end(), c.sweepMs.begin(),
                        c.sweepMs.end());
        bad += c.unverified;
        for (double ps : c.latencyPs)
            bad += ps != latency_ps;
    }
    run.count(compile_ms.size(), bad);
    run.check(bad == 0, "a compile verified no programs or priced the "
                        "network differently from the others");

    // The §VI-A anchor, read through the analytic backend's cost model.
    const dnn::ConvOp *anchor = nullptr;
    for (const auto &stage : net.stages)
        for (const auto &branch : stage.branches)
            for (const auto &op : branch.ops)
                if (op.isConv() && op.conv.name == "Conv2D_2b_3x3")
                    anchor = &op.conv;
    run.check(anchor != nullptr, "Conv2D_2b_3x3 missing from the net");
    if (anchor) {
        core::AnalyticBackend ab(model.config());
        mapping::ConvPlan plan =
            mapping::planConv(*anchor, model.config().geometry);
        double cyc = ab.model().macCyclesPerConv(plan) +
                     ab.model().reduceCyclesPerConv(plan);
        run.check(cyc == kAnchorCyclesPerConv &&
                      plan.serialPasses == kAnchorSerialPasses,
                  "Conv2D_2b anchor: " + std::to_string(cyc) +
                      " cycles/conv, " +
                      std::to_string(plan.serialPasses) +
                      " serial passes (paper 2784, 43)");
    }

    run.timing(Kind::EndToEnd, "setup_s", toSeconds(compile_ms), "s");
    run.timing(Kind::Printed, "lat_p50_ms", sweep_ms, "ms");
    gatedLatency(run, sweep_ms);

    core::InferenceReport r1 = model.report(1);
    core::InferenceReport r256 = model.report(256);
    run.addModeled(Kind::Printed, "latency_error_pct",
            paperErrorPct(r1.latencyMs(), kPaperLatencyMs), "%");
    run.addModeled(Kind::Printed, "throughput_error_pct",
            paperErrorPct(r256.throughput(), kPaperImagesPerS), "%");
    run.addModeled(Kind::Printed, "energy_error_pct",
            paperErrorPct(r1.energy.totalJ(), kPaperEnergyJ), "%");
    std::printf("# model error is against the paper's reported values "
                "(Fig. 15 %.2f ms, Fig. 16 %.0f inf/s, Table III %.3f "
                "J), not hardware: the model is unvalidated against "
                "silicon\n",
                kPaperLatencyMs, kPaperImagesPerS, kPaperEnergyJ);
    modelMetrics(run, model);
    if (run.trace) {
        kernelMetrics(run);
        // An analytic compile keeps no weights; the DRAM-image pass
        // lays out seeded banks of the same shapes.
        std::vector<ConvBank> banks;
        Rng rng = seededRng(run.seed, 5);
        for (const auto &stage : net.stages)
            for (const auto &branch : stage.branches)
                for (const auto &op : branch.ops)
                    if (op.isConv())
                        banks.push_back(
                            {op.conv,
                             mapping::planConv(op.conv,
                                               model.config().geometry),
                             dnn::randomQWeights(rng, op.conv.m,
                                                 op.conv.c, op.conv.r,
                                                 op.conv.s)});
        compileCallMetrics(run, net, model, model.config(), banks,
                           median(compile_ms));
    }
}

} // namespace nc::nbench

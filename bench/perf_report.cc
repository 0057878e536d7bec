/**
 * @file
 * Machine-readable simulator-speed report (BENCH_simspeed.json).
 *
 * Runs the same workload through the scalar baseline (bit-by-bit
 * reference kernels + poke-based data movement + 1 thread — the
 * pre-optimization simulator) and through the word-parallel
 * multithreaded path, verifies the two agree bit-for-bit and
 * cycle-for-cycle, and emits throughputs and speedups as JSON so the
 * perf trajectory of the repository is tracked by data, not
 * anecdotes. Schema 2 adds the Engine compile/run split: compiling
 * Inception v3 once (mapping + tiling + calibration) versus
 * answering a batched report from the compiled model (arithmetic
 * only) — the §IV-E amortization, measured. Schema 3 adds the batch
 * section: the image-parallel runBatch fan-out (§IV-E) against the
 * serial per-image loop on the same functional network, wall time
 * and measured images/s, outputs verified bit-identical. Schema 4
 * adds the faults section: the same batch with dead arrays — BIST
 * retire at compile, a mid-batch soft error healed by the canary
 * repair path — priced against the fault-free run, outputs still
 * bit-identical. Schema 5 adds the serve section: the deadline-
 * driven dynamic batcher behind the loopback transport — closed-loop
 * p50/p99 latency, images/s, mean batch occupancy, every served
 * output verified bit-identical to direct runBatch, plus a paused-
 * batcher probe proving admission control rejects (typed, counted)
 * past --max-inflight. Schema 6 adds the SIMD dispatch dimension:
 * the resolved dispatch tier and the host's best tier next to
 * host_cores, and a micro.tiers section timing the opAdd and
 * storeVector kernels at every tier this host/build can run
 * (scalar / avx2 / avx512, pinned with forceTier). All micro
 * numbers are interleaved best-of-3 so scheduler noise hits every
 * tier alike; bench/perf_gate diffs this file against the committed
 * baseline and fails CI on regressions. Schema 7 adds the static
 * program verifier's coverage to the engine section
 * (programs_verified, verify_ms), asserted to stay a fraction of the
 * measured compile wall time. See ROADMAP.md
 * "Performance & benchmarking" for the schema.
 * Usage: perf_report [output.json]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bitserial/layout.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "sram/kernels.hh"
#include "core/engine.hh"
#include "core/executor.hh"
#include "dnn/inception_v3.hh"
#include "dnn/reference.hh"
#include "serve/loadgen.hh"
#include "serve/server.hh"

#include "batch_net.hh"

namespace
{

using namespace nc;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Run fn repeatedly for ~0.2s; return seconds per call. */
template <class F>
double
timePerCall(F fn)
{
    // Warm-up + calibration.
    auto t0 = std::chrono::steady_clock::now();
    fn();
    double once = secondsSince(t0);
    unsigned reps = once > 0.2 ? 1
                    : static_cast<unsigned>(0.2 / (once + 1e-9)) + 1;
    t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < reps; ++i)
        fn();
    return secondsSince(t0) / reps;
}

/**
 * One interleaved micro measurement: a workload, its calibrated rep
 * count, and the best (least-preempted) per-call time seen so far.
 */
struct Measurement
{
    std::function<void()> fn;
    unsigned reps = 1;
    double best_s = 1e30;
};

/**
 * Time every measurement interleaved, best-of-@p rounds: calibrate
 * each to ~0.1 s, then cycle through the whole list per round so
 * scheduler noise lands on all of them alike, keeping each one's
 * minimum. The minimum — not the mean — is what the code can
 * actually do; it is what the perf gate compares.
 */
void
runInterleaved(std::vector<Measurement> &meas, unsigned rounds = 3)
{
    for (auto &m : meas) {
        auto t0 = std::chrono::steady_clock::now();
        m.fn();
        double once = secondsSince(t0);
        m.reps = once > 0.1
                     ? 1
                     : static_cast<unsigned>(0.1 / (once + 1e-9)) + 1;
    }
    for (unsigned round = 0; round < rounds; ++round) {
        for (auto &m : meas) {
            // Each rep is timed on its own and only the fastest kept:
            // on a 1-vCPU host a 0.1 s window always absorbs timer
            // interrupts, and averaging them in would understate what
            // the code can do by several percent. The workloads run
            // tens of microseconds each, so the clock reads are noise.
            for (unsigned i = 0; i < m.reps; ++i) {
                auto t0 = std::chrono::steady_clock::now();
                m.fn();
                m.best_s = std::min(m.best_s, secondsSince(t0));
            }
        }
    }
}

struct ConvResult
{
    std::vector<uint32_t> out;
    uint64_t cycles = 0;
    double seconds = 0;
};

ConvResult
runConv(const dnn::QTensor &in, const dnn::QWeights &w, bool scalar)
{
    cache::ComputeCache cc;
    // The scalar baseline: every array in bit-by-bit reference mode,
    // one thread — the simulator as it was before the word-parallel
    // rebuild.
    for (unsigned mi = 0; mi < w.m; ++mi)
        cc.array(cc.coordOf(mi)).setReferenceMode(scalar);
    core::Executor ex(cc, scalar ? 1 : 0);
    unsigned oh, ow;
    auto t0 = std::chrono::steady_clock::now();
    ConvResult r;
    r.out = ex.conv(in, w, 1, true, oh, ow);
    r.seconds = secondsSince(t0);
    r.cycles = ex.lockstepCycles();
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *path = argc > 1 ? argv[1] : "BENCH_simspeed.json";

    // Resolve dispatch up front: activeTier() parses NC_SIMD (fatal
    // on a bogus or unsupported spec) before any timing runs.
    const common::simd::Tier dispatch = sram::kern::activeTier();
    const common::simd::Tier host_best = sram::kern::bestTier();
    const auto tiers = sram::kern::availableTiers();

    // ---- micro: opAdd and storeVector at every runnable tier ---------
    sram::Array fast(256, 256), ref(256, 256);
    Rng rng(13);
    for (unsigned r = 0; r < 256; ++r)
        for (unsigned wi = 0; wi < 4; ++wi) {
            uint64_t v = rng.uniformBits(64);
            fast.rowMut(r).setWord(wi, v);
            ref.rowMut(r).setWord(wi, v);
        }
    ref.setReferenceMode(true);

    const unsigned kOps = 20000;
    auto addLoop = [](sram::Array &a) {
        unsigned r = 0;
        for (unsigned i = 0; i < kOps; ++i) {
            a.opAdd(r, r + 1, r + 2);
            r = (r + 1) % 250;
        }
    };
    bitserial::VecSlice slice{200, 8};
    std::vector<uint64_t> values(256);
    for (auto &v : values)
        v = rng.uniformBits(8);
    const unsigned kStores = 2000;
    auto storeLoop = [&](sram::Array &a) {
        for (unsigned i = 0; i < kStores; ++i)
            bitserial::storeVector(a, slice, values);
    };

    // One measurement list, interleaved best-of-3: per tier the add
    // and store kernels (pinned with forceTier inside the workload),
    // plus the bit-by-bit reference versions (tier-independent).
    std::vector<Measurement> meas(2 * tiers.size() + 2);
    for (size_t ti = 0; ti < tiers.size(); ++ti) {
        common::simd::Tier t = tiers[ti];
        meas[ti].fn = [&, t] {
            sram::kern::forceTier(t);
            addLoop(fast);
        };
        meas[tiers.size() + ti].fn = [&, t] {
            sram::kern::forceTier(t);
            storeLoop(fast);
        };
    }
    meas[2 * tiers.size()].fn = [&] { addLoop(ref); };
    meas[2 * tiers.size() + 1].fn = [&] { storeLoop(ref); };
    runInterleaved(meas);
    sram::kern::forceTier(dispatch);

    std::vector<double> tier_add_mops(tiers.size());
    std::vector<double> tier_st_ml(tiers.size());
    double add_fast_mops = 0, st_fast_ml = 0;
    for (size_t ti = 0; ti < tiers.size(); ++ti) {
        tier_add_mops[ti] = kOps / meas[ti].best_s / 1e6;
        tier_st_ml[ti] =
            kStores * 256.0 / meas[tiers.size() + ti].best_s / 1e6;
        if (tiers[ti] == dispatch) {
            add_fast_mops = tier_add_mops[ti];
            st_fast_ml = tier_st_ml[ti];
        }
    }
    double add_ref_mops = kOps / meas[2 * tiers.size()].best_s / 1e6;
    double st_ref_ml =
        kStores * 256.0 / meas[2 * tiers.size() + 1].best_s / 1e6;

    // ---- end to end: representative conv layer -----------------------
    Rng wrng(7);
    dnn::QTensor in(16, 14, 14);
    for (auto &v : in.data())
        v = static_cast<uint8_t>(wrng.uniformBits(8));
    dnn::QWeights w(8, 16, 3, 3);
    for (auto &v : w.data)
        v = static_cast<uint8_t>(wrng.uniformBits(8));

    ConvResult scalar = runConv(in, w, /*scalar=*/true);
    ConvResult opt = runConv(in, w, /*scalar=*/false);
    nc_assert(scalar.out == opt.out,
              "scalar and optimized paths disagree");
    nc_assert(scalar.cycles == opt.cycles,
              "modeled cycles changed: %llu vs %llu",
              static_cast<unsigned long long>(scalar.cycles),
              static_cast<unsigned long long>(opt.cycles));
    // Best-of-3 on the optimized path: sim_cycles_per_sec is gated,
    // so it gets the same least-preempted-run treatment as the
    // micros (the scalar baseline only feeds the speedup ratio).
    for (unsigned rep = 0; rep < 2; ++rep) {
        ConvResult again = runConv(in, w, /*scalar=*/false);
        nc_assert(again.cycles == opt.cycles,
                  "conv cycles moved between repeats");
        opt.seconds = std::min(opt.seconds, again.seconds);
    }
    double conv_speedup = scalar.seconds / opt.seconds;

    // ---- engine: compile-once vs run-many amortization ---------------
    // Compiling Inception v3 runs mapping/tiling + calibration for
    // all 20 stages; a batched report from the compiled model is
    // pure arithmetic on the cached stage costs. Pricing the stages
    // per query (as the check below does) pays both every time.
    auto inception = dnn::inceptionV3();
    core::EngineOptions eopts;
    eopts.backend = core::BackendKind::Analytic;

    double compile_s = timePerCall([&] {
        core::Engine engine(eopts);
        auto m = engine.compile(inception);
        (void)m;
    });
    core::Engine engine(eopts);
    auto compile_t0 = std::chrono::steady_clock::now();
    auto model = engine.compile(inception);
    double one_compile_s = secondsSince(compile_t0);
    double run_s = timePerCall([&] { (void)model.report(16); });

    // The static program verifier runs inside compile(); its cost is
    // a phase of that same wall time, never extra.
    nc_assert(model.programsVerified() > 0,
              "compile verified no programs");
    nc_assert(model.verifyMs() <= one_compile_s * 1e3,
              "verify_ms %.4f exceeds the compile wall time %.4f ms",
              model.verifyMs(), one_compile_s * 1e3);

    // The compiled model must answer exactly what re-pricing every
    // stage per call answers.
    core::AnalyticBackend analytic(model.config());
    std::vector<core::StageCost> repriced;
    for (const auto &stage : inception.stages)
        repriced.push_back(analytic.stageCost(stage));
    auto per_call = analytic.report(inception, repriced, 16);
    auto compiled = model.report(16);
    nc_assert(compiled.batchPs == per_call.batchPs &&
                  compiled.latencyPs == per_call.latencyPs,
              "engine and per-call pricing reports disagree");

    // ---- batch: image-parallel runBatch vs the serial loop -----------
    // The §IV-E scaling primitive, measured: the same functional
    // network and batch of 8, executed by a one-worker engine (the
    // serial per-image loop) and by an image-parallel engine fanning
    // images over >= 2 workers, each image in its own replica of the
    // pinned filter bands. Outputs must be bit-identical.
    auto bnet = benchnet::batchFunctionalNet();
    const unsigned kBatch = 8;
    auto images = benchnet::batchFunctionalImages(kBatch);

    core::EngineOptions serial_opts;
    serial_opts.backend = core::BackendKind::Functional;
    serial_opts.threads = 1;
    core::Engine serial_engine(serial_opts);
    auto serial_model = serial_engine.compile(bnet);

    core::EngineOptions par_opts = serial_opts;
    par_opts.threads =
        std::max(2u, common::ThreadPool::defaultThreads());
    core::Engine par_engine(par_opts);
    auto par_model = par_engine.compile(bnet);

    // Also the untimed warm-up: the first batch pays the one-time
    // lazy replica pinning, so the timed loops below measure
    // steady-state execution.
    auto serial_res = serial_model.runBatch(images);
    auto par_res = par_model.runBatch(images);
    for (unsigned i = 0; i < kBatch; ++i)
        nc_assert(serial_res.outputs[i].data() ==
                      par_res.outputs[i].data(),
                  "serial and image-parallel batch disagree on "
                  "image %u", i);

    // Interleaved best-of-N: the two paths alternate so scheduler
    // noise hits both alike, and the minimum (the least-preempted
    // run) is what each path can actually do.
    double batch_serial_s = 1e30, batch_par_s = 1e30;
    for (unsigned rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        (void)serial_model.runBatch(images);
        batch_serial_s = std::min(batch_serial_s, secondsSince(t0));
        t0 = std::chrono::steady_clock::now();
        (void)par_model.runBatch(images);
        batch_par_s = std::min(batch_par_s, secondsSince(t0));
    }
    double batch_speedup = batch_serial_s / batch_par_s;

    // ---- faults: BIST + self-healing priced ------------------------
    // The same batch with the first three physical arrays dead: BIST
    // retires them at compile, placement lands on survivors, outputs
    // must not move. Then a soft error strikes a guard row mid-model
    // and the canary repair path (detect -> retire -> substitute ->
    // re-pin -> retry) must heal it without changing a bit.
    core::EngineOptions fault_opts = par_opts;
    fault_opts.faults.killArrays = {0, 1, 2};
    core::Engine fault_engine(fault_opts);
    auto fault_model = fault_engine.compile(bnet);
    auto fault_res = fault_model.runBatch(images); // warm-up
    for (unsigned i = 0; i < kBatch; ++i)
        nc_assert(fault_res.outputs[i].data() ==
                      par_res.outputs[i].data(),
                  "fault campaign changed batch output %u", i);
    double batch_fault_s = 1e30;
    for (unsigned rep = 0; rep < 3; ++rep) {
        auto t0 = std::chrono::steady_clock::now();
        (void)fault_model.runBatch(images);
        batch_fault_s = std::min(batch_fault_s, secondsSince(t0));
    }
    auto *fault_cc = fault_model.computeCache();
    fault_cc->injectFlip(fault_cc->physicalOf(0),
                         fault_cc->geometry().arrayRows - 1, 7);
    auto healed = fault_model.runBatch(images);
    for (unsigned i = 0; i < kBatch; ++i)
        nc_assert(healed.outputs[i].data() ==
                      par_res.outputs[i].data(),
                  "self-healed batch output %u mismatches", i);
    nc_assert(healed.report.passRetries > 0,
              "canary repair did not retry any pass");

    // ---- serve: dynamic batching behind the loopback transport -------
    // The serving front end around the same image-parallel model:
    // closed-loop clients through the wire protocol, the batcher
    // coalescing under its deadline, every served output compared
    // bit for bit against the direct runBatch of the same inputs.
    const unsigned kServeRequests = 48, kServeClients = 4;
    serve::LoadStats serveStats;
    {
        serve::ServerOptions sopts;
        sopts.batcher.deadlineMs = 2;
        sopts.batcher.maxInflight = 256;
        serve::InferenceServer server(par_model, sopts);
        serve::LoadGenOptions lopts;
        lopts.requests = kServeRequests;
        lopts.clients = kServeClients;
        lopts.seed = 1;
        serveStats = serve::runLoadGen(par_model, server, lopts);
        server.shutdown();
    }
    nc_assert(serveStats.completed == kServeRequests &&
                  serveStats.mismatched == 0 &&
                  serveStats.errors == 0,
              "serve run lost or corrupted requests: %llu ok, %llu "
              "mismatched, %llu errors",
              static_cast<unsigned long long>(serveStats.completed),
              static_cast<unsigned long long>(serveStats.mismatched),
              static_cast<unsigned long long>(serveStats.errors));

    // Backpressure, demonstrated rather than assumed: a paused
    // batcher with a cap of 4 must queue the first four requests and
    // reject the overflow with the typed status, never silently.
    const unsigned kCap = 4, kOffered = 8;
    uint64_t serveRejected = 0;
    {
        serve::ServerOptions sopts;
        sopts.batcher.maxInflight = kCap;
        sopts.batcher.startPaused = true;
        serve::InferenceServer server(par_model, sopts);
        auto client = server.loopback();
        for (unsigned i = 0; i < kOffered; ++i) {
            serve::wire::RequestFrame req;
            req.id = i + 1;
            req.input = images[i % kBatch];
            client.send(req);
        }
        server.batcher().resume();
        for (unsigned i = 0; i < kOffered; ++i) {
            auto rsp = client.receive();
            nc_assert(rsp.has_value(),
                      "backpressure probe response %u missing", i);
            if (rsp->status == serve::wire::Status::Rejected)
                ++serveRejected;
        }
        server.shutdown();
    }
    nc_assert(serveRejected == kOffered - kCap,
              "cap %u rejected %llu of %u offered", kCap,
              static_cast<unsigned long long>(serveRejected),
              kOffered);

    unsigned threads = common::ThreadPool::defaultThreads();
    unsigned host_cores = std::max(
        1u, static_cast<unsigned>(std::thread::hardware_concurrency()));

    // micro.tiers: one object per runnable tier, narrowest first.
    std::string tiers_json;
    for (size_t ti = 0; ti < tiers.size(); ++ti) {
        char buf[192];
        std::snprintf(buf, sizeof buf,
                      "      \"%s\": {\n"
                      "        \"opadd_mops\": %.2f,\n"
                      "        \"store_vector_mlanes_per_s\": %.2f\n"
                      "      }%s\n",
                      common::simd::tierName(tiers[ti]),
                      tier_add_mops[ti], tier_st_ml[ti],
                      ti + 1 < tiers.size() ? "," : "");
        tiers_json += buf;
    }

    std::FILE *f = std::fopen(path, "w");
    if (!f)
        nc_fatal("cannot open %s for writing", path);
    std::fprintf(f,
        "{\n"
        "  \"bench\": \"simspeed\",\n"
        "  \"schema\": 7,\n"
        "  \"threads\": %u,\n"
        "  \"host_cores\": %u,\n"
        "  \"dispatch\": \"%s\",\n"
        "  \"host_best\": \"%s\",\n"
        "  \"micro\": {\n"
        "    \"timing\": \"interleaved best-of-3\",\n"
        "    \"opadd_mops\": %.2f,\n"
        "    \"opadd_ref_mops\": %.2f,\n"
        "    \"opadd_speedup\": %.2f,\n"
        "    \"store_vector_mlanes_per_s\": %.2f,\n"
        "    \"store_vector_ref_mlanes_per_s\": %.2f,\n"
        "    \"store_vector_speedup\": %.2f,\n"
        "    \"tiers\": {\n"
        "%s"
        "    }\n"
        "  },\n"
        "  \"conv_layer\": {\n"
        "    \"shape\": \"in 16x14x14, filters 8x16x3x3, stride 1, "
        "same pad\",\n"
        "    \"sim_cycles\": %llu,\n"
        "    \"scalar_ms\": %.3f,\n"
        "    \"fast_ms\": %.3f,\n"
        "    \"speedup\": %.2f,\n"
        "    \"sim_cycles_per_sec\": %.0f\n"
        "  },\n"
        "  \"engine\": {\n"
        "    \"network\": \"inception_v3\",\n"
        "    \"backend\": \"analytic\",\n"
        "    \"compile_ms\": %.4f,\n"
        "    \"run_ms\": %.4f,\n"
        "    \"runs_per_compile\": %.1f,\n"
        "    \"programs_verified\": %llu,\n"
        "    \"verify_ms\": %.4f\n"
        "  },\n"
        "  \"batch\": {\n"
        "    \"network\": \"%s\",\n"
        "    \"backend\": \"functional\",\n"
        "    \"batch\": %u,\n"
        "    \"serial_threads\": 1,\n"
        "    \"parallel_threads\": %u,\n"
        "    \"image_slots\": %u,\n"
        "    \"passes\": %llu,\n"
        "    \"serial_ms\": %.2f,\n"
        "    \"parallel_ms\": %.2f,\n"
        "    \"speedup\": %.2f,\n"
        "    \"images_per_s\": %.1f\n"
        "  },\n"
        "  \"faults\": {\n"
        "    \"network\": \"%s\",\n"
        "    \"killed\": 3,\n"
        "    \"bist_retired\": %llu,\n"
        "    \"image_slots\": %u,\n"
        "    \"batch_ms\": %.2f,\n"
        "    \"fault_free_ms\": %.2f,\n"
        "    \"overhead_pct\": %.1f,\n"
        "    \"repair_detected\": %llu,\n"
        "    \"repair_retired_total\": %llu,\n"
        "    \"repair_pass_retries\": %llu,\n"
        "    \"outputs\": \"bit-identical\"\n"
        "  },\n"
        "  \"serve\": {\n"
        "    \"network\": \"%s\",\n"
        "    \"transport\": \"loopback\",\n"
        "    \"loop\": \"closed\",\n"
        "    \"requests\": %u,\n"
        "    \"clients\": %u,\n"
        "    \"deadline_ms\": 2,\n"
        "    \"max_inflight\": 256,\n"
        "    \"p50_ms\": %.3f,\n"
        "    \"p99_ms\": %.3f,\n"
        "    \"images_per_s\": %.1f,\n"
        "    \"mean_occupancy\": %.2f,\n"
        "    \"backpressure_cap\": %u,\n"
        "    \"backpressure_offered\": %u,\n"
        "    \"rejected\": %llu,\n"
        "    \"outputs\": \"bit-identical\"\n"
        "  }\n"
        "}\n",
        threads, host_cores, common::simd::tierName(dispatch),
        common::simd::tierName(host_best),
        add_fast_mops, add_ref_mops, add_fast_mops / add_ref_mops,
        st_fast_ml, st_ref_ml, st_fast_ml / st_ref_ml, tiers_json.c_str(),
        static_cast<unsigned long long>(opt.cycles),
        scalar.seconds * 1e3, opt.seconds * 1e3, conv_speedup,
        opt.cycles / opt.seconds,
        compile_s * 1e3, run_s * 1e3, compile_s / run_s,
        static_cast<unsigned long long>(model.programsVerified()),
        model.verifyMs(),
        bnet.name.c_str(), kBatch, par_opts.threads,
        par_model.batchBands().imageSlots,
        static_cast<unsigned long long>(
            par_model.batchBands().passes(kBatch)),
        batch_serial_s * 1e3, batch_par_s * 1e3, batch_speedup,
        kBatch / batch_par_s,
        bnet.name.c_str(),
        static_cast<unsigned long long>(fault_res.report.arraysRetired),
        fault_model.batchBands().imageSlots, batch_fault_s * 1e3,
        batch_par_s * 1e3,
        (batch_fault_s / batch_par_s - 1.0) * 100.0,
        static_cast<unsigned long long>(healed.report.faultsDetected),
        static_cast<unsigned long long>(healed.report.arraysRetired),
        static_cast<unsigned long long>(healed.report.passRetries),
        bnet.name.c_str(), kServeRequests, kServeClients,
        serveStats.p50Ms, serveStats.p99Ms, serveStats.imagesPerSec,
        serveStats.meanOccupancy, kCap, kOffered,
        static_cast<unsigned long long>(serveRejected));
    std::fclose(f);

    std::printf("perf_report: dispatch %s (host best %s, %u cores): "
                "opAdd %.1f Mops/s (ref %.2f, %.0fx), storeVector "
                "%.1f Mlanes/s (ref %.2f, %.0fx), conv %.1f ms vs "
                "%.1f ms scalar (%.1fx, %u threads)\n",
                common::simd::tierName(dispatch),
                common::simd::tierName(host_best), host_cores,
                add_fast_mops, add_ref_mops,
                add_fast_mops / add_ref_mops, st_fast_ml, st_ref_ml,
                st_fast_ml / st_ref_ml, opt.seconds * 1e3,
                scalar.seconds * 1e3, conv_speedup, threads);
    for (size_t ti = 0; ti < tiers.size(); ++ti)
        std::printf("perf_report: tier %-6s opAdd %8.1f Mops/s, "
                    "storeVector %8.1f Mlanes/s\n",
                    common::simd::tierName(tiers[ti]),
                    tier_add_mops[ti], tier_st_ml[ti]);
    std::printf("perf_report: engine compile %.3f ms, run %.4f ms "
                "(%.0f runs amortize one compile)\n",
                compile_s * 1e3, run_s * 1e3, compile_s / run_s);
    std::printf("perf_report: batch-%u serial %.1f ms vs parallel "
                "%.1f ms on %u threads (%.2fx, %.1f img/s, %u image "
                "slots)\n",
                kBatch, batch_serial_s * 1e3, batch_par_s * 1e3,
                par_opts.threads, batch_speedup, kBatch / batch_par_s,
                par_model.batchBands().imageSlots);
    std::printf("perf_report: faults batch %.1f ms vs %.1f ms clean "
                "(%.1f%% overhead); BIST retired %llu, mid-run "
                "repair retired %llu with %llu pass retries, outputs "
                "bit-identical\n",
                batch_fault_s * 1e3, batch_par_s * 1e3,
                (batch_fault_s / batch_par_s - 1.0) * 100.0,
                static_cast<unsigned long long>(
                    fault_res.report.arraysRetired),
                static_cast<unsigned long long>(
                    healed.report.arraysRetired),
                static_cast<unsigned long long>(
                    healed.report.passRetries));
    std::printf("perf_report: serve %u reqs, %u clients over "
                "loopback: p50 %.2f ms, p99 %.2f ms, %.1f img/s, "
                "mean occupancy %.2f; cap-%u probe rejected %llu of "
                "%u, outputs bit-identical\n",
                kServeRequests, kServeClients, serveStats.p50Ms,
                serveStats.p99Ms, serveStats.imagesPerSec,
                serveStats.meanOccupancy, kCap,
                static_cast<unsigned long long>(serveRejected),
                kOffered);
    std::printf("perf_report: wrote %s\n", path);
    return 0;
}

/**
 * @file
 * nbench: the end-to-end benchmark of the simulator, one workload per
 * process.
 *
 *     nbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--trace-out <file>] [--state-dir <dir>]
 *
 * Prints every metric it measured as "name value unit" lines (with
 * "#" comment lines around them), then, as the last line, one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. The metrics
 * object holds the end-to-end metrics of an untraced run, or the
 * per-layer metrics of a traced one — the lists below, which
 * BENCHMARK.json mirrors. Exits 1 when a correctness check failed.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "common/argparse.hh"
#include "common/simd.hh"
#include "sram/kernels.hh"
#include "workloads.hh"

namespace
{

using namespace nc::nbench;

/**
 * The metrics the final JSON line carries, per mode. Every workload
 * measures every one of them:
 *  - setup_s: median of several set-ups — Engine::compile, plus on the
 *    batchnet workloads the first runBatch that pins the replicas;
 *  - peak_rss_mb: the process's peak resident set;
 *  - lat_mean_ms: mean host latency of the workload's call — one
 *    run() (inception75-stream), one 256-image runBatch
 *    (batchnet-resident), one request at the heavy rate from due time
 *    to receipt (batchnet-serve-open), one report(b) sweep over
 *    b = 1..256 (inception299-analytic); the median and tail of the
 *    same samples are printed as lat_p50_ms and a tail line.
 * Metrics only some workloads have (images_per_s, the serving rates,
 * the paper errors, ...) are on the printed lines only.
 */
const char *const kEndToEnd[] = {"setup_s", "peak_rss_mb",
                                 "lat_mean_ms"};
const char *const kPerLayer[] = {
    "common.pool_busy_pct",
    "sram.opadd_mops",
    "bitserial.store_vector_mlanes_per_s",
    "bitserial.load_vector_mlanes_per_s",
    "mapping.plan_ms",
    "mapping.dram_image_ms",
    "mapping.audit_ms",
    "core.verify_ms",
    "core.stage_cost_ms",
    "core.setup_coverage_pct",
    "core.programs_verified",
    "model.latency_ms",
    "model.images_per_s_b256",
    "model.energy_j",
    "model.phase.filter_load_ms",
    "model.phase.input_stream_ms",
    "model.phase.output_xfer_ms",
    "model.phase.mac_ms",
    "model.phase.reduce_ms",
    "model.phase.quant_ms",
    "model.phase.pool_ms",
    "trace.overhead_pct",
};

struct Workload
{
    const char *name;
    void (*fn)(Run &);
    /** Engine threads (concurrent callers for the analytic
     * workload): min(nproc, this). */
    unsigned maxThreads;
};

const Workload kWorkloads[] = {
    {"inception75-stream", runInception75Stream, 4},
    {"batchnet-resident", runBatchnetResident, 4},
    {"batchnet-serve-open", runBatchnetServeOpen, 4},
    {"inception299-analytic", runInception299Analytic, 4},
};

unsigned
nprocOnline()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

/** Wall ns one span open/close costs on a recording tracer. */
double
nsPerSpan()
{
    const unsigned kSpans = 100000;
    Tracer probe(true);
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < kSpans; ++i)
        Span s(probe, "common", "probe");
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           kSpans;
}

void
printTraceSummary(Run &run, double run_wall_ms,
                  const std::string &trace_out)
{
    auto spans = run.tracer.spans();
    double per_span = nsPerSpan();
    double overhead_pct = static_cast<double>(spans.size()) * per_span /
                          (run_wall_ms * 1e6) * 100.0;
    run.add(Kind::PerLayer, "trace.overhead_pct", overhead_pct, "%");
    std::printf("# tracing: %zu spans at %.0f ns each = %.4f%% of the "
                "%.0f ms run\n",
                spans.size(), per_span, overhead_pct, run_wall_ms);
    auto totals = spanTotals(spans);
    std::vector<std::pair<std::string, SpanTotals>> rows(totals.begin(),
                                                         totals.end());
    std::sort(rows.begin(), rows.end(), [](auto &a, auto &b) {
        return a.second.selfMs > b.second.selfMs;
    });
    std::printf("# %-48s %8s %12s %12s\n", "span (module.call)", "count",
                "total_ms", "self_ms");
    for (auto &[name, t] : rows)
        std::printf("# %-48s %8llu %12.3f %12.3f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count),
                    t.totalMs, t.selfMs);
    if (!trace_out.empty()) {
        bool ok = run.tracer.writeChromeTrace(
            trace_out,
            {{"workload", run.workload},
             {"seed", std::to_string(run.seed)},
             {"nproc", std::to_string(run.nproc)},
             {"engine_threads", std::to_string(run.threads)},
             {"simd_tier", nc::common::simd::tierName(
                               nc::sram::kern::activeTier())}});
        run.check(ok, "could not write the span file " + trace_out);
        std::printf("# spans written to %s\n", trace_out.c_str());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out, state_dir;
    uint64_t seed = 1;
    double seconds = 10;
    unsigned trace = 0;
    nc::common::ArgParser args("nbench",
                               "end-to-end benchmark, one workload");
    args.addString("workload", &workload,
                   "inception75-stream | batchnet-resident | "
                   "batchnet-serve-open | inception299-analytic");
    args.addUint64("seed", &seed, "input seed");
    args.addDouble("seconds", &seconds, "timed seconds");
    args.addUint("trace", &trace, "1: traced per-layer run", 0, 1);
    args.addString("trace-out", &trace_out, "span file (traced runs)");
    args.addString("state-dir", &state_dir,
                   "directory for cross-run checks");
    args.parse(argc, argv);

    const Workload *w = nullptr;
    for (const auto &cand : kWorkloads)
        if (workload == cand.name)
            w = &cand;
    if (!w || !(seconds > 0)) {
        std::fprintf(stderr, "nbench: unknown workload '%s' or "
                             "non-positive --seconds\n%s",
                     workload.c_str(), args.usage().c_str());
        return 2;
    }

    auto t0 = std::chrono::steady_clock::now();
    const unsigned nproc = nprocOnline();
    Run run(workload, seed, seconds, trace != 0, nproc,
            std::min(nproc, w->maxThreads));
    run.stateDir = state_dir;
    std::printf("# nbench workload=%s seed=%llu seconds=%g trace=%u "
                "nproc=%u engine_threads=%u simd_tier=%s\n",
                workload.c_str(), static_cast<unsigned long long>(seed),
                seconds, trace, run.nproc, run.threads,
                nc::common::simd::tierName(
                    nc::sram::kern::activeTier()));
    w->fn(run);

    rusage u{};
    getrusage(RUSAGE_SELF, &u);
    run.add(Kind::EndToEnd, "peak_rss_mb",
            static_cast<double>(u.ru_maxrss) / 1024.0, "MB");
    run.add(Kind::Printed, "failed_pct",
            run.attempted ? 100.0 * static_cast<double>(run.failed) /
                                static_cast<double>(run.attempted)
                          : 0,
            "%");
    if (run.trace)
        printTraceSummary(run,
                          std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count(),
                          trace_out);

    for (bool modeled : {false, true}) {
        std::printf(modeled ? "# modeled (the simulated chip):\n"
                            : "# host (the simulator):\n");
        for (const auto &m : run.metrics)
            if (m.modeled == modeled)
                std::printf("%-40s %.10g %s\n", m.name.c_str(), m.value,
                            m.unit.c_str());
    }
    std::printf("# attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed));

    // The JSON line: exactly this mode's list, each measured once.
    Kind want = run.trace ? Kind::PerLayer : Kind::EndToEnd;
    std::string json;
    auto emit = [&](const char *name) {
        const Metric *found = nullptr;
        for (const auto &m : run.metrics)
            if (m.kind == want && m.name == name) {
                run.check(!found, std::string("metric measured twice: ") +
                                      name);
                found = &m;
            }
        run.check(found != nullptr,
                  std::string("metric not measured: ") + name);
        if (!found)
            return;
        run.check(std::isfinite(found->value),
                  std::string("metric is not finite: ") + name);
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      json.empty() ? "" : ", ", name, found->value,
                      found->unit.c_str());
        json += buf;
    };
    if (run.trace)
        for (const char *n : kPerLayer)
            emit(n);
    else
        for (const char *n : kEndToEnd)
            emit(n);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                run.correct && run.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(run.attempted),
                static_cast<unsigned long long>(run.failed),
                json.c_str());
    return run.correct && run.failed == 0 ? 0 : 1;
}

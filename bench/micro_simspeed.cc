/**
 * @file
 * google-benchmark micro suite for the simulator's own speed (host
 * wall clock, not modeled cycles): the word-parallel Array kernels
 * against their bit-by-bit reference path, the fused MAC and
 * reduction passes against their micro-op expansions, the transposed
 * storeVector/loadVector data movement, and a small end-to-end conv
 * layer through the Executor. Complements micro_bitserial, which
 * reports modeled-machine throughput; this file is about how fast the
 * model itself runs. bench/perf_report emits the same comparison as
 * machine-readable BENCH_simspeed.json.
 */

#include <benchmark/benchmark.h>

#include "bitserial/alu.hh"
#include "bitserial/layout.hh"
#include "common/rng.hh"
#include "core/executor.hh"
#include "dnn/reference.hh"

namespace
{

using namespace nc;
using bitserial::RowAllocator;
using bitserial::VecSlice;
using sram::Array;

Array
randomArray(bool reference, unsigned rows = 256, unsigned cols = 256)
{
    Array arr(rows, cols);
    Rng rng(7);
    for (unsigned r = 0; r < rows; ++r)
        for (unsigned w = 0; w < (cols + 63) / 64; ++w)
            arr.rowMut(r).setWord(w, rng.uniformBits(64));
    arr.setReferenceMode(reference);
    return arr;
}

/** One full-adder micro-op per iteration (the hot-loop workhorse). */
void
BM_OpAdd(benchmark::State &state)
{
    Array arr = randomArray(state.range(0) != 0);
    unsigned r = 0;
    for (auto _ : state) {
        arr.opAdd(r, r + 1, r + 2);
        r = (r + 1) % 250;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpAdd)->Arg(0)->Arg(1);

/** Tag-predicated add, as issued by multiply/mac inner loops. */
void
BM_OpAddPredicated(benchmark::State &state)
{
    Array arr = randomArray(state.range(0) != 0);
    arr.opLoadTag(3);
    unsigned r = 0;
    for (auto _ : state) {
        arr.opAdd(r, r + 1, r + 2, /*pred=*/true);
        r = (r + 1) % 250;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OpAddPredicated)->Arg(0)->Arg(1);

/** A group array of @p members 256-lane members with random rows. */
Array
groupArray(unsigned members)
{
    Array arr(256, 256 * members, 256);
    Rng rng(9);
    for (unsigned r = 0; r < arr.rows(); ++r)
        for (unsigned w = 0; w < arr.cols() / 64; ++w)
            arr.rowMut(r).setWord(w, rng.uniformBits(64));
    return arr;
}

/**
 * One 8x8 MAC macro-op into a 24-bit accumulator on a group array of
 * range(0) members: range(1) 0 is the ALU call (the fused pass where
 * the active tier has one), 1 its micro-op expansion. Items are
 * members, so the per-item time is the cost per 256-lane member.
 */
void
BM_MacScratch(benchmark::State &state)
{
    const auto members = static_cast<unsigned>(state.range(0));
    Array arr = groupArray(members);
    RowAllocator rows(arr.rows());
    VecSlice a = rows.alloc(8), b = rows.alloc(8);
    VecSlice acc = rows.alloc(24), scratch = rows.alloc(16);
    unsigned zrow = rows.zeroRow();
    const bool micro = state.range(1) != 0;
    for (auto _ : state) {
        if (micro)
            bitserial::microops::macScratch(arr, a, b, acc, scratch,
                                            zrow);
        else
            bitserial::macScratch(arr, a, b, acc, scratch, zrow);
    }
    state.SetItemsProcessed(state.iterations() * members);
}
BENCHMARK(BM_MacScratch)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"members", "micro"});

/**
 * The conv window's lane-tree reduction (256 lanes, 24-bit partial
 * sums) on a group array, with the same arguments as BM_MacScratch.
 */
void
BM_ReduceSum(benchmark::State &state)
{
    const auto members = static_cast<unsigned>(state.range(0));
    Array arr = groupArray(members);
    RowAllocator rows(arr.rows());
    VecSlice acc = rows.alloc(24 + 8), scratch = rows.alloc(24 + 7);
    const bool micro = state.range(1) != 0;
    for (auto _ : state) {
        if (micro)
            bitserial::microops::reduceSum(arr, acc, 24, 256, scratch);
        else
            bitserial::reduceSum(arr, acc, 24, 256, scratch);
    }
    state.SetItemsProcessed(state.iterations() * members);
}
BENCHMARK(BM_ReduceSum)
    ->ArgsProduct({{1, 4, 16, 64}, {0, 1}})
    ->ArgNames({"members", "micro"});

/** Transposed 8-bit store of a full 256-lane vector. */
void
BM_StoreVector(benchmark::State &state)
{
    Array arr = randomArray(state.range(0) != 0);
    RowAllocator rows(arr.rows());
    VecSlice s = rows.alloc(8);
    Rng rng(11);
    std::vector<uint64_t> values(arr.cols());
    for (auto &v : values)
        v = rng.uniformBits(8);
    for (auto _ : state)
        bitserial::storeVector(arr, s, values);
    state.SetItemsProcessed(state.iterations() * arr.cols());
}
BENCHMARK(BM_StoreVector)->Arg(0)->Arg(1);

/** Transposed load of the same vector. */
void
BM_LoadVector(benchmark::State &state)
{
    Array arr = randomArray(state.range(0) != 0);
    RowAllocator rows(arr.rows());
    VecSlice s = rows.alloc(8);
    for (auto _ : state)
        benchmark::DoNotOptimize(bitserial::loadVector(arr, s));
    state.SetItemsProcessed(state.iterations() * arr.cols());
}
BENCHMARK(BM_LoadVector)->Arg(0)->Arg(1);

/** End-to-end: one small conv layer through the functional executor. */
void
BM_ExecutorConv(benchmark::State &state)
{
    Rng rng(21);
    dnn::QTensor in(8, 6, 6);
    for (auto &v : in.data())
        v = static_cast<uint8_t>(rng.uniformBits(8));
    dnn::QWeights w(2, 8, 3, 3);
    for (auto &v : w.data)
        v = static_cast<uint8_t>(rng.uniformBits(8));
    for (auto _ : state) {
        cache::ComputeCache cc;
        core::Executor ex(cc, static_cast<unsigned>(state.range(0)));
        unsigned oh, ow;
        benchmark::DoNotOptimize(ex.conv(in, w, 1, true, oh, ow));
    }
}
BENCHMARK(BM_ExecutorConv)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond);

} // namespace

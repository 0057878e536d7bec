#include "core/compiled_model.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "core/program_verify.hh"
#include "dnn/reference.hh"
#include "mapping/plan_audit.hh"

namespace nc::core
{

CompiledModel::CompiledModel() = default;
CompiledModel::CompiledModel(CompiledModel &&) noexcept = default;
CompiledModel &CompiledModel::operator=(CompiledModel &&) noexcept =
    default;
CompiledModel::~CompiledModel() = default;

unsigned
CompiledModel::threads() const
{
    return pool ? pool->size() : 1;
}

const CompiledLayer *
CompiledModel::findLayer(std::string_view name) const
{
    for (const auto &layer : layers)
        if (layer.op.name() == name)
            return &layer;
    return nullptr;
}

InferenceReport
CompiledModel::report(unsigned batch) const
{
    // Degenerate sizes are hard errors here — callers (runBatch,
    // benches, servers) are not trusted to pre-filter them.
    nc_assert(batch >= 1, "report: batch 0 for network '%s'",
              net.name.c_str());
    nc_assert(batch <= kMaxBatch,
              "report: batch %u exceeds the %u ceiling for '%s'",
              batch, kMaxBatch, net.name.c_str());
    // The compile-time banding is authoritative: the report prices
    // exactly the slot/pass structure runBatch executes (a Reference
    // model places no bands, so its slots differ from the
    // all-functional net-level estimate) — and after runtime
    // retirements it is the degraded banding, so throughput honestly
    // shrinks with capacity.
    InferenceReport rep =
        analytic->report(net, stageCosts, batch, &bandPlan);
    rep.faultsDetected = nFaultsDetected;
    rep.arraysRetired = nArraysRetired;
    rep.passRetries = nPassRetries;
    rep.programsVerified = nProgramsVerified;
    rep.verifyMs = verifyMsTotal;
    return rep;
}

void
CompiledModel::placeAndPrepare(bool force_streaming)
{
    const cache::Geometry &geom = cfg.geometry;
    // Only a Functional model's convs own filter bands; a Reference
    // model runs CPU loops and touches no arrays.
    const bool functional = kind == BackendKind::Functional;

    // One scratch array per concurrently-executing branch (pools,
    // eltwise merges, and requantization scribble on it); stages
    // execute serially, so branch slot i is reused across stages.
    uint64_t scratch_slots = 1;
    for (const CompiledStage &cstage : stages)
        scratch_slots = std::max<uint64_t>(scratch_slots,
                                           cstage.branches.size());

    // Capacity: the full geometry, shrunk to the healthy survivors
    // when a fault campaign has retired arrays.
    const uint64_t usable =
        cc->faultsConfigured() ? cc->usableArrays() : 0;
    const uint64_t capacity =
        usable == 0 ? geom.totalArrays() : usable;

    uint64_t whole_need = 0;
    for (const CompiledLayer &layer : layers) {
        if (functional && layer.op.isConv())
            whole_need += layer.funcPlan.totalArrays(layer.op.conv.m);
    }
    // The §IV-E batch banding: one image's footprint (stationary
    // filter bands + per-branch scratch) and how many images the
    // spare capacity runs concurrently — runBatch executes exactly
    // this plan, and the analytic batch report prices the same pass
    // structure.
    bandPlan = mapping::planBatchBands(
        whole_need, static_cast<unsigned>(scratch_slots), geom,
        !force_streaming, usable);
    bool all_resident = bandPlan.resident;

    uint64_t scratch_base = 0;
    if (all_resident) {
        // Whole-network residency: every conv layer owns its full
        // band in layer order, filters pinned once at compile
        // (§IV-E: batches amortize the load forever); scratch slots
        // sit past the last band.
        uint64_t next = 0;
        for (CompiledLayer &layer : layers) {
            if (!functional || !layer.op.isConv())
                continue;
            uint64_t need =
                layer.funcPlan.totalArrays(layer.op.conv.m);
            layer.baseArray = next;
            layer.bandArrays = need;
            layer.bandResident = true;
            next += need;
        }
        scratch_base = next;
        usedExtent = next + scratch_slots;
    } else {
        // Streaming regime: the network exceeds the (remaining)
        // cache, so conv layers re-pin filters as they run. Scratch
        // slots sit at the bottom; every stage re-uses the region
        // above them, with the stage's branches in disjoint bands so
        // they can execute concurrently. A band smaller than a
        // layer's full need makes the kernel cycle filter groups
        // through it.
        if (capacity <= scratch_slots)
            nc_fatal("'%s': %llu usable arrays cannot even hold the "
                     "%llu scratch slots; retired arrays: %s",
                     net.name.c_str(),
                     static_cast<unsigned long long>(capacity),
                     static_cast<unsigned long long>(scratch_slots),
                     cc->health()->summary().c_str());
        uint64_t avail = capacity - scratch_slots;
        usedExtent = scratch_slots;
        for (size_t si = 0; si < stages.size(); ++si) {
            const CompiledStage &cstage = stages[si];
            std::vector<uint64_t> need_b(cstage.branches.size(), 0);
            std::vector<uint64_t> min_b(cstage.branches.size(), 0);
            for (size_t bi = 0; bi < cstage.branches.size(); ++bi) {
                for (size_t li : cstage.branches[bi].layerIdx) {
                    const CompiledLayer &layer = layers[li];
                    if (!functional || !layer.op.isConv())
                        continue;
                    need_b[bi] = std::max(
                        need_b[bi], layer.funcPlan.totalArrays(
                                        layer.op.conv.m));
                    min_b[bi] = std::max(
                        min_b[bi],
                        uint64_t(layer.funcPlan.chunks));
                }
            }
            uint64_t need_sum = 0, min_sum = 0;
            for (size_t bi = 0; bi < need_b.size(); ++bi) {
                need_sum += need_b[bi];
                min_sum += min_b[bi];
            }
            // A shrunken capacity that cannot hold even the minimum
            // streaming footprint is the hard floor of graceful
            // degradation — die naming the retired arrays.
            if (min_sum > avail && cc->faultsConfigured())
                nc_fatal("stage '%s' of '%s' needs %llu arrays "
                         "concurrently but only %llu usable remain; "
                         "retired arrays: %s",
                         net.stages[si].name.c_str(),
                         net.name.c_str(),
                         static_cast<unsigned long long>(
                             min_sum + scratch_slots),
                         static_cast<unsigned long long>(capacity),
                         cc->health()->summary().c_str());
            nc_assert(min_sum <= avail,
                      "stage '%s' needs %llu arrays concurrently, "
                      "cache has %llu",
                      net.stages[si].name.c_str(),
                      static_cast<unsigned long long>(min_sum +
                                                      scratch_slots),
                      static_cast<unsigned long long>(capacity));
            // Every branch gets its need when the stage fits;
            // otherwise the guaranteed minimum plus an equal share of
            // the remainder (deterministic, capped at the need).
            std::vector<uint64_t> band_b = need_b;
            if (need_sum > avail) {
                uint64_t left = avail - min_sum;
                for (size_t bi = 0; bi < band_b.size(); ++bi) {
                    uint64_t extra = std::min(
                        need_b[bi] - min_b[bi],
                        left / (band_b.size() - bi));
                    band_b[bi] = min_b[bi] + extra;
                    left -= extra;
                }
            }
            uint64_t next = scratch_slots;
            for (size_t bi = 0; bi < cstage.branches.size(); ++bi) {
                for (size_t li : cstage.branches[bi].layerIdx) {
                    CompiledLayer &layer = layers[li];
                    if (!functional || !layer.op.isConv())
                        continue;
                    layer.baseArray = next;
                    layer.bandArrays = band_b[bi];
                    layer.bandResident = false;
                }
                next += band_b[bi];
            }
            usedExtent = std::max(usedExtent, next);
        }
    }

    // Scratch arrays: one per branch slot, materialized now so the
    // parallel branch fan-out never mutates the lazy array map.
    // Reference models are CPU loops only and touch no arrays.
    if (functional) {
        for (uint64_t i = 0; i < scratch_slots; ++i)
            cc->array(scratch_base + i);
    }
    for (CompiledStage &cstage : stages) {
        for (size_t bi = 0; bi < cstage.branches.size(); ++bi) {
            for (size_t li : cstage.branches[bi].layerIdx)
                layers[li].scratchArray = scratch_base + bi;
        }
    }
    scratchBase = scratch_base;
    // Replicas (if any were pinned) are stale after a re-place; they
    // re-pin lazily on the next batch pass.
    preparedSlots = 1;
    if (!functional)
        return;

    // --- Pass C: prepare the per-layer kernels on the plan and band
    // each conv was given above. ------------------------------------
    for (CompiledLayer &layer : layers) {
        if (layer.op.isConv()) {
            const dnn::ConvOp &co = layer.op.conv;
            layer.funcConv = ex->prepareConv(
                layer.weights, layer.funcPlan, co.stride, co.samePad,
                layer.baseArray, layer.bandArrays, layer.bandResident);
        } else if (layer.op.kind == dnn::OpKind::EltwiseAdd) {
            layer.funcElt = ex->prepareEltwise(
                layer.requantMult, layer.requantShift,
                layer.scratchArray);
        }
    }
}

dnn::QTensor
CompiledModel::runOp(CompiledLayer &layer, dnn::QTensor act,
                     uint64_t array_offset)
{
    // A Functional model runs the bit-serial kernels on the arrays of
    // the image slot at array_offset; a Reference model runs the
    // dnn::reference loops, which carry no array state, so every
    // image slot runs the identical code.
    const bool functional = kind == BackendKind::Functional;
    const uint64_t scratch = layer.scratchArray + array_offset;
    switch (layer.op.kind) {
      case dnn::OpKind::FullyConnected:
        // Flatten CHW into channels, as TF does for FC-as-1x1.
        if (act.height() != 1 || act.width() != 1) {
            dnn::QTensor flat(
                act.channels() * act.height() * act.width(), 1, 1,
                act.params());
            flat.data() = std::move(act.data());
            act = std::move(flat);
        }
        [[fallthrough]];
      case dnn::OpKind::Conv: {
        const dnn::ConvOp &co = layer.op.conv;
        unsigned oh = 0, ow = 0;
        std::vector<uint8_t> bytes;
        if (functional) {
            nc_assert(layer.funcConv.has_value(),
                      "layer '%s' was not prepared for the functional "
                      "backend", co.name.c_str());
            const auto acc = layer.funcConv->run(act, layer.weights, oh,
                                                 ow, array_offset);
            bytes = ex->requantize(acc, layer.requantMult,
                                   layer.requantShift, scratch);
        } else {
            const auto acc = dnn::convQuantUnsigned(
                act, layer.weights, co.stride, co.samePad, oh, ow);
            bytes = dnn::requantQuant(acc, layer.requantMult,
                                      layer.requantShift);
        }
        dnn::QTensor next(co.m, oh, ow);
        next.data() = std::move(bytes);
        return next;
      }
      case dnn::OpKind::MaxPool: {
        const dnn::PoolOp &po = layer.op.pool;
        if (functional)
            return ex->maxPool(act, po.r, po.s, po.stride, po.samePad,
                               scratch);
        return dnn::maxPoolQuant(act, po.r, po.s, po.stride,
                                 po.samePad);
      }
      case dnn::OpKind::AvgPool: {
        const dnn::PoolOp &po = layer.op.pool;
        if (functional)
            return ex->avgPool(act, po.r, po.s, po.stride, po.samePad,
                               scratch);
        return dnn::avgPoolQuant(act, po.r, po.s, po.stride,
                                 po.samePad);
      }
      case dnn::OpKind::EltwiseAdd:
        nc_panic("eltwise '%s' is a merge, not a chain op (run loop "
                 "bug)", layer.op.name().c_str());
    }
    nc_panic("unreachable op kind");
}

dnn::QTensor
CompiledModel::runBranch(const CompiledBranch &branch,
                         dnn::QTensor input, uint64_t array_offset)
{
    // The serial prefix (the trailing eltwise merge, if any, is
    // applied by the caller once the shortcut operand exists).
    size_t n = branch.layerIdx.size();
    if (branch.endsWithEltwise)
        --n;
    size_t serial = branch.splitTail ? n - 2 : n;

    dnn::QTensor act = std::move(input);
    for (size_t i = 0; i < serial; ++i)
        act = runOp(layers[branch.layerIdx[i]], std::move(act),
                    array_offset);

    if (branch.splitTail) {
        // The expanded-tower fan-out (Mixed_7b/7c): the last two ops
        // both read the penultimate tensor and their outputs
        // concatenate in op order.
        dnn::QTensor t0 =
            runOp(layers[branch.layerIdx[n - 2]], act, array_offset);
        dnn::QTensor t1 =
            runOp(layers[branch.layerIdx[n - 1]], std::move(act),
                  array_offset);
        dnn::QTensor cat(t0.channels() + t1.channels(), t0.height(),
                         t0.width(), t0.params());
        auto &buf = cat.data();
        std::copy(t0.data().begin(), t0.data().end(), buf.begin());
        std::copy(t1.data().begin(), t1.data().end(),
                  buf.begin() + static_cast<long>(t0.data().size()));
        act = std::move(cat);
    }
    return act;
}

dnn::QTensor
CompiledModel::runLayers(const dnn::QTensor &input,
                         uint64_t array_offset)
{
    dnn::QTensor act = input;
    for (const CompiledStage &stage : stages) {
        // Fast path: a plain single-branch chain moves the
        // activation through without copying it.
        if (stage.branches.size() == 1 &&
            !stage.branches.front().endsWithEltwise) {
            act = runBranch(stage.branches.front(), std::move(act),
                            array_offset);
            continue;
        }

        // Mixed/residual stage: every branch reads the stage input;
        // the independent branch chains fan out over the shared pool
        // (each branch's layers own disjoint array bands and scratch,
        // so outputs and cycle charges stay bit-identical for any
        // thread count).
        const dnn::QTensor in0 = std::move(act);
        std::vector<dnn::QTensor> outs(stage.branches.size());
        // (Ownership claims happen at the leaf kernels each branch
        // runs — a branch-level claim here would conflict with the
        // real task fan-outs a branch's kernels dispatch whenever
        // this loop itself collapsed to inline execution.)
        pool->parallelFor(stage.branches.size(), [&](size_t bi) {
            outs[bi] = runBranch(stage.branches[bi], in0, array_offset);
        });

        // Residual merges: the eltwise tail adds the shortcut
        // branch's output (or the stage input, for identity
        // shortcuts) into the branch result.
        for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
            const CompiledBranch &br = stage.branches[bi];
            if (!br.endsWithEltwise)
                continue;
            const dnn::QTensor &operand =
                stage.shortcutBranch >= 0
                    ? outs[static_cast<size_t>(stage.shortcutBranch)]
                    : in0;
            CompiledLayer &l = layers[br.layerIdx.back()];
            if (kind == BackendKind::Functional) {
                nc_assert(l.funcElt.has_value(),
                          "eltwise '%s' was not prepared for the "
                          "functional backend", l.op.name().c_str());
                outs[bi].data() = l.funcElt->run(
                    outs[bi].data(), operand.data(), array_offset);
            } else {
                outs[bi] = dnn::eltwiseAddQuant(outs[bi], operand,
                                                l.requantMult,
                                                l.requantShift);
            }
        }

        // Channel-concatenate the non-shortcut branch outputs (CHW is
        // channel-major, so the concat is a buffer append).
        size_t total = 0;
        unsigned out_c = 0;
        const dnn::QTensor *first = nullptr;
        for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
            if (static_cast<int>(bi) == stage.shortcutBranch)
                continue;
            total += outs[bi].data().size();
            out_c += outs[bi].channels();
            if (!first)
                first = &outs[bi];
        }
        nc_assert(first, "stage with only a shortcut branch");
        dnn::QTensor cat(out_c, first->height(), first->width(),
                         in0.params());
        nc_assert(cat.data().size() == total,
                  "concat size mismatch: %zu vs %zu",
                  cat.data().size(), total);
        size_t off = 0;
        for (size_t bi = 0; bi < stage.branches.size(); ++bi) {
            if (static_cast<int>(bi) == stage.shortcutBranch)
                continue;
            const auto &src = outs[bi].data();
            std::copy(src.begin(), src.end(),
                      cat.data().begin() + static_cast<long>(off));
            off += src.size();
        }
        act = std::move(cat);
    }
    return act;
}

uint64_t
CompiledModel::liveArrayExtent() const
{
    return bandPlan.resident
               ? uint64_t(preparedSlots) * bandPlan.perImageArrays
               : usedExtent;
}

std::vector<uint64_t>
CompiledModel::canaryScan()
{
    // Every functional layout reserves the top word line as the
    // constant-zero row (bitserial::RowAllocator::zeroRow) and never
    // legally writes it, so a non-zero guard row is proof of a fault
    // — and the blast radius of an unnoticed one is real: padded
    // adds read that row. rowRef() touches the row, which re-applies
    // stuck clamps and pending transient flips before we look.
    std::vector<uint64_t> bad;
    const uint64_t extent = liveArrayExtent();
    for (uint64_t l = 0; l < extent; ++l) {
        const sram::Array *arr = cc->peekArray(l);
        if (!arr)
            continue; // unmaterialized: no data to corrupt
        if (arr->rowRef(arr->rows() - 1).popcount() != 0)
            bad.push_back(l);
    }
    return bad;
}

bool
CompiledModel::canarySweepAndRepair(unsigned &budget)
{
    std::vector<uint64_t> bad = canaryScan();
    if (bad.empty())
        return true;
    nFaultsDetected += bad.size();
    if (budget == 0)
        nc_fatal("'%s': fault retry budget (%u) exhausted with %zu "
                 "guard rows still corrupt; retired arrays: %s",
                 net.name.c_str(), faultCfg.retryBudget, bad.size(),
                 cc->health()->summary().c_str());
    --budget;
    for (uint64_t l : bad) {
        // A full re-place reshuffles the logical space, making the
        // remaining scanned indices stale; the next sweep (the retry
        // always rescans) catches any survivors.
        if (repairOne(l))
            break;
    }
    // Re-prove the healed plan before trusting it with a retry —
    // the placement audit and the program verifier, exactly the
    // compile-time gates, since repair may have re-placed layers
    // and re-prepared their programs.
    mapping::auditPlanOrDie(*this);
    verify::VerifySummary vs = verify::verifyCompiledModelOrDie(*this);
    nProgramsVerified += vs.programsVerified;
    verifyMsTotal += vs.verifyMs;
    return false;
}

bool
CompiledModel::repairOne(uint64_t logical)
{
    if (cc->usableArrays() > liveArrayExtent()) {
        // Spare available: surgical substitution — only the touched
        // replica re-pins, nothing else moves.
        uint64_t spare = cc->retireAndSubstitute(
            logical, "canary: guard row corrupted");
        ++nArraysRetired;
        repinLogical(logical);
        // The spare may have been the tail of a planned-but-unpinned
        // image slot; shrink the slot count to what still fits.
        if (bandPlan.resident &&
            uint64_t(bandPlan.imageSlots) * bandPlan.perImageArrays >
                cc->usableArrays())
            bandPlan.imageSlots = static_cast<unsigned>(
                cc->usableArrays() / bandPlan.perImageArrays);
        nc_inform("'%s': retired logical array %llu (physical %llu "
                  "substituted), %llu usable remain, %u image slots",
                  net.name.c_str(),
                  static_cast<unsigned long long>(logical),
                  static_cast<unsigned long long>(spare),
                  static_cast<unsigned long long>(cc->usableArrays()),
                  bandPlan.imageSlots);
        return false;
    }

    // No spare left: shed capacity and re-place the whole plan over
    // the survivors — fewer image slots, or the streaming regime
    // once one image's bands no longer fit. placeAndPrepare dies
    // with the retired-array roster when even the minimum streaming
    // footprint is gone.
    bool was_resident = bandPlan.resident;
    unsigned was_slots = bandPlan.imageSlots;
    cc->retireCompact(logical, "canary: guard row corrupted");
    ++nArraysRetired;
    placeAndPrepare(false);
    nc_inform("'%s': retired logical array %llu with no spare; "
              "re-placed over %llu arrays (%s, %u image slots; was "
              "%s, %u)",
              net.name.c_str(),
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(cc->usableArrays()),
              bandPlan.resident ? "resident" : "streaming",
              bandPlan.imageSlots,
              was_resident ? "resident" : "streaming", was_slots);
    return true;
}

void
CompiledModel::repinLogical(uint64_t logical)
{
    uint64_t slot_off = 0;
    uint64_t q = logical;
    if (bandPlan.resident) {
        uint64_t slot = logical / bandPlan.perImageArrays;
        slot_off = slot * bandPlan.perImageArrays;
        q = logical - slot_off;
    }
    // Scratch arrays hold no pinned state (kernels write before they
    // read); materializing the substitute is enough.
    if (q >= scratchBase && q < scratchBase + bandPlan.scratchSlots) {
        cc->array(logical);
        return;
    }
    for (CompiledLayer &layer : layers) {
        if (!layer.funcConv || layer.bandArrays == 0)
            continue;
        if (q < layer.baseArray ||
            q >= layer.baseArray + layer.bandArrays)
            continue;
        // Streaming bands re-pin their filter groups on every run;
        // only a resident band's stationary filters need restoring.
        if (layer.funcConv->resident())
            layer.funcConv->pinReplica(layer.weights, slot_off);
        return;
    }
    nc_panic("logical array %llu is in no live band (repair bug)",
             static_cast<unsigned long long>(logical));
}

InferenceResult
CompiledModel::run(const dnn::QTensor &input)
{
    // A batch of one: runBatch's single pass runs the image inline in
    // image slot 0 (the conv kernels still fan out over the pool).
    BatchInferenceResult batch = runBatch({&input, 1});
    InferenceResult res;
    if (!batch.outputs.empty())
        res.output = std::move(batch.outputs.front());
    res.report = std::move(batch.report);
    return res;
}

unsigned
CompiledModel::ensureImageSlots(unsigned want)
{
    want = std::max(want, 1u);
    nc_assert(want <= bandPlan.imageSlots,
              "%u image slots requested, capacity plans %u", want,
              bandPlan.imageSlots);
    for (unsigned slot = preparedSlots; slot < want; ++slot) {
        uint64_t off = uint64_t(slot) * bandPlan.perImageArrays;
        // The replica's scratch arrays, materialized now: the image
        // fan-out must never mutate the lazy array map.
        if (kind == BackendKind::Functional) {
            for (unsigned i = 0; i < bandPlan.scratchSlots; ++i)
                cc->array(scratchBase + off + i);
        }
        for (CompiledLayer &layer : layers) {
            if (layer.funcConv)
                layer.funcConv->pinReplica(layer.weights, off);
        }
    }
    preparedSlots = std::max(preparedSlots, want);
    return want;
}

BatchInferenceResult
CompiledModel::runBatch(std::span<const dnn::QTensor> inputs)
{
    nc_assert(!inputs.empty(), "runBatch: empty batch for '%s'",
              net.name.c_str());
    // Validate the size once, before it is ever narrowed: a negative
    // or garbage count wrapped into size_t dies here with the real
    // number in the message.
    nc_assert(inputs.size() <= kMaxBatch,
              "runBatch: batch of %zu images exceeds the %u ceiling "
              "for '%s'", inputs.size(), kMaxBatch, net.name.c_str());

    BatchInferenceResult res;
    if (functional()) {
        // Validate every image up front, naming the offending batch
        // index — a shape error must not surface as a layer mismatch
        // deep inside image 17's third conv.
        for (size_t i = 0; i < inputs.size(); ++i) {
            const dnn::QTensor &in = inputs[i];
            nc_assert(in.channels() == inC && in.height() == inH &&
                          in.width() == inW,
                      "runBatch: batch input %zu is %ux%ux%u, network "
                      "'%s' expects %ux%ux%u", i, in.channels(),
                      in.height(), in.width(), net.name.c_str(), inC,
                      inH, inW);
        }

        // Image-parallel execution (§IV-E): filters stay stationary
        // and the spare array capacity runs `slots` images
        // concurrently, each image streaming through its own replica
        // of the network's bands (disjoint array state per image
        // slot). Batches beyond the spare capacity time-slice into
        // passes — the same pass structure the analytic report
        // prices. Every image is an independent computation on its
        // own replica, so the result is bit-identical to the serial
        // per-image loop for any thread count and any batch size.
        // With the canary armed, a pass whose scan finds corruption
        // repairs and reruns — slot count and regime re-read each
        // iteration because repair may have degraded them.
        unsigned budget = faultCfg.retryBudget;
        res.outputs.resize(inputs.size());
        size_t first = 0;
        while (first < inputs.size()) {
            unsigned slots = ensureImageSlots(static_cast<unsigned>(
                std::min<uint64_t>(inputs.size() - first,
                                   bandPlan.imageSlots)));
            size_t count =
                std::min<size_t>(slots, inputs.size() - first);
            // (Image-slot disjointness is proven statically by the
            // band plan audit; the runtime ownership claims stay at
            // the leaf kernels, which carry each image's
            // arrayOffset.)
            pool->parallelFor(count, [&](size_t k) {
                res.outputs[first + k] = runLayers(
                    inputs[first + k], k * bandPlan.perImageArrays);
            });
            if (canaryOn && !canarySweepAndRepair(budget)) {
                ++nPassRetries;
                continue; // rerun this pass on the healed plan
            }
            first += count;
        }
    }
    // Assembled after execution so runtime retirements (degraded
    // banding, fault counters) price into this very call's report.
    res.report = report(static_cast<unsigned>(inputs.size()));
    return res;
}

} // namespace nc::core

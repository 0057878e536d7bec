#include "mapping/plan_audit.hh"

#include <cinttypes>
#include <cstdio>

#include "cache/compute_cache.hh"
#include "common/logging.hh"
#include "core/compiled_model.hh"

namespace nc::mapping
{

namespace
{

/**
 * Unit-id spaces: units are only compared for equality, so the spaces
 * just need to be collision-free. Streaming branch units are the raw
 * branch slot index (compared within one stage epoch); resident conv
 * bands and scratch slots are always-live and get globally unique
 * ids above these bases.
 */
constexpr uint32_t kScratchUnitBase = 0x20000000u;
constexpr uint32_t kResidentUnitBase = 0x40000000u;

std::string
describe(const AuditRange &r)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, " [%" PRIu64 ", %" PRIu64 ")",
                  r.base, r.base + r.arrays);
    return "'" + r.label + "'" + buf;
}

void
addViolation(AuditReport &rep, std::string msg)
{
    rep.violations.push_back(AuditViolation{std::move(msg)});
}

} // namespace

std::string
AuditReport::summary() const
{
    if (violations.empty())
        return "ok";
    std::string s;
    for (const AuditViolation &v : violations) {
        if (!s.empty())
            s += '\n';
        s += v.message;
    }
    return s;
}

AuditReport
auditRanges(const std::vector<AuditRange> &ranges,
            const cache::Geometry &geom, const BatchBandPlan &bands,
            uint64_t usable_arrays)
{
    AuditReport rep;
    const uint64_t total =
        usable_arrays == 0 ? geom.totalArrays() : usable_arrays;
    if (total > geom.totalArrays())
        addViolation(rep, "usable capacity " + std::to_string(total) +
                              " exceeds the " +
                              std::to_string(geom.totalArrays()) +
                              "-array geometry");

    // The §IV-E banding arithmetic itself.
    if (bands.scratchSlots < 1)
        addViolation(rep, "batch banding has no scratch slot");
    if (bands.imageSlots < 1)
        addViolation(rep, "batch banding has no image slot");
    if (bands.perImageArrays !=
        bands.filterArrays + bands.scratchSlots)
        addViolation(
            rep, "batch banding per-image footprint " +
                     std::to_string(bands.perImageArrays) +
                     " != filter arrays " +
                     std::to_string(bands.filterArrays) +
                     " + scratch slots " +
                     std::to_string(bands.scratchSlots));
    if (!bands.resident && bands.imageSlots != 1)
        addViolation(rep,
                     "streaming regime with " +
                         std::to_string(bands.imageSlots) +
                         " image slots (layers time-share bands; "
                         "a second in-flight image would clobber "
                         "them)");
    if (bands.resident &&
        uint64_t(bands.imageSlots) * bands.perImageArrays > total)
        addViolation(rep,
                     std::to_string(bands.imageSlots) +
                         " image replicas of " +
                         std::to_string(bands.perImageArrays) +
                         " arrays exceed the " +
                         std::to_string(total) + "-array cache");

    // Per-range bounds.
    for (const AuditRange &r : ranges) {
        ++rep.rangesChecked;
        if (r.arrays == 0) {
            addViolation(rep, "empty range " + describe(r));
            continue;
        }
        if (r.base + r.arrays < r.base || r.base + r.arrays > total)
            addViolation(rep, describe(r) + " exceeds the " +
                                  std::to_string(total) +
                                  "-array geometry");
        // Image replicas displace every range by slot *
        // perImageArrays, so multi-slot plans must confine slot 0 to
        // its own footprint or replicas would interleave.
        else if (bands.imageSlots > 1 &&
                 r.base + r.arrays > bands.perImageArrays)
            addViolation(rep,
                         describe(r) +
                             " escapes the per-image footprint of " +
                             std::to_string(bands.perImageArrays) +
                             " arrays (" +
                             std::to_string(bands.imageSlots) +
                             " image slots)");
    }

    // Pairwise disjointness of concurrently-live ranges.
    for (size_t i = 0; i < ranges.size(); ++i) {
        const AuditRange &a = ranges[i];
        if (a.arrays == 0)
            continue;
        for (size_t j = i + 1; j < ranges.size(); ++j) {
            const AuditRange &b = ranges[j];
            if (b.arrays == 0)
                continue;
            bool live_together = a.epoch == AuditRange::kAllEpochs ||
                                 b.epoch == AuditRange::kAllEpochs ||
                                 a.epoch == b.epoch;
            if (!live_together)
                continue;
            ++rep.pairsChecked;
            bool overlap = a.base < b.base + b.arrays &&
                           b.base < a.base + a.arrays;
            if (!overlap)
                continue;
            if (a.unit == b.unit) {
                // One unit is serial with itself (a streaming
                // branch's layers time-share one band), but then the
                // shared band must be the same band.
                if (a.base != b.base || a.arrays != b.arrays)
                    addViolation(rep,
                                 describe(a) + " and " + describe(b) +
                                     " partially overlap within one "
                                     "concurrency unit");
                continue;
            }
            addViolation(rep, describe(a) + " and " + describe(b) +
                                  " overlap while concurrently live");
        }
    }
    return rep;
}

namespace
{

/**
 * Walk @p model's placement and build the live-range list; the
 * structural defects found along the way (mis-wired scratch slots,
 * bandless convs, residency mismatches) go into @p structural when
 * given, and are silently skipped for callers that only want the
 * ranges themselves (planRanges).
 */
std::vector<AuditRange>
collectRanges(const core::CompiledModel &model, AuditReport *structural)
{
    const BatchBandPlan &bands = model.batchBands();
    const dnn::Network &net = model.network();
    const auto &layers = model.compiledLayers();
    const auto &stages = model.compiledStages();

    std::vector<AuditRange> ranges;
    uint32_t resident_seq = 0;

    // Only a Functional model places layers on arrays; a Reference
    // model's layers run CPU loops.
    const size_t placed_stages =
        model.backend() == core::BackendKind::Functional ? stages.size()
                                                         : 0;
    for (size_t si = 0; si < placed_stages; ++si) {
        const auto &cstage = stages[si];
        for (size_t bi = 0; bi < cstage.branches.size(); ++bi) {
            const std::string where = " (stage '" +
                                      net.stages[si].name +
                                      "' branch '" +
                                      net.stages[si].branches[bi].name +
                                      "')";
            for (size_t li : cstage.branches[bi].layerIdx) {
                const core::CompiledLayer &layer = layers[li];
                // Branch slot wiring: concurrently executing
                // branches must scribble on distinct scratch arrays.
                if (structural &&
                    layer.scratchArray !=
                        model.scratchBaseArray() + bi)
                    addViolation(
                        *structural,
                        "layer '" + layer.op.name() +
                            "' scratch array " +
                            std::to_string(layer.scratchArray) +
                            " is not its branch slot " +
                            std::to_string(model.scratchBaseArray() +
                                           bi) +
                            where);
                if (!layer.op.isConv())
                    continue;
                if (layer.bandArrays == 0) {
                    if (structural)
                        addViolation(*structural,
                                     "conv '" + layer.op.name() +
                                         "' has no filter band" +
                                         where);
                    continue;
                }
                if (structural && layer.bandResident != bands.resident)
                    addViolation(
                        *structural,
                        "conv '" + layer.op.name() + "' placed " +
                            (layer.bandResident ? "resident"
                                                : "streaming") +
                            " in a " +
                            (bands.resident ? "resident"
                                            : "streaming") +
                            " plan" + where);
                AuditRange r;
                r.label =
                    "conv '" + layer.op.name() + "' filter band" +
                    where;
                r.base = layer.baseArray;
                r.arrays = layer.bandArrays;
                if (bands.resident) {
                    r.epoch = AuditRange::kAllEpochs;
                    r.unit = kResidentUnitBase + resident_seq++;
                } else {
                    r.epoch = static_cast<uint32_t>(si);
                    r.unit = static_cast<uint32_t>(bi);
                }
                ranges.push_back(std::move(r));
            }
        }
    }

    // Scratch slots are always live: they must clear every band in
    // every epoch. Only placed (functional) models have them.
    if (model.functional()) {
        for (unsigned k = 0; k < bands.scratchSlots; ++k) {
            AuditRange r;
            r.label = "scratch slot " + std::to_string(k);
            r.base = model.scratchBaseArray() + k;
            r.arrays = 1;
            r.epoch = AuditRange::kAllEpochs;
            r.unit = kScratchUnitBase + k;
            ranges.push_back(std::move(r));
        }
    }
    return ranges;
}

} // namespace

std::vector<AuditRange>
planRanges(const core::CompiledModel &model)
{
    return collectRanges(model, nullptr);
}

AuditReport
auditPlan(const core::CompiledModel &model)
{
    const cache::Geometry &geom = model.config().geometry;
    const BatchBandPlan &bands = model.batchBands();

    AuditReport structural;
    std::vector<AuditRange> ranges = collectRanges(model, &structural);

    const cache::ComputeCache *cc = model.computeCache();
    uint64_t usable = 0;
    if (cc && cc->faultsConfigured())
        usable = cc->usableArrays();

    AuditReport rep = auditRanges(ranges, geom, bands, usable);

    // The fault-tolerance invariant: no live range — in any image
    // replica — may touch a retired physical array. The remap
    // guarantees this by construction; the audit re-proves it after
    // every compile and every runtime repair, because a repair bug
    // here means silently computing on dead silicon.
    if (cc && cc->health()) {
        const cache::HealthMap &hm = *cc->health();
        unsigned slots = bands.resident ? bands.imageSlots : 1;
        for (const AuditRange &r : ranges) {
            for (unsigned s = 0; s < slots; ++s) {
                uint64_t off = uint64_t(s) * bands.perImageArrays;
                if (r.base + off + r.arrays > cc->usableArrays())
                    break; // out of capacity: reported above
                for (uint64_t i = 0; i < r.arrays; ++i) {
                    uint64_t logical = r.base + off + i;
                    uint64_t phys = cc->physicalOf(logical);
                    if (hm.healthy(phys))
                        continue;
                    addViolation(
                        rep,
                        describe(r) + " slot " + std::to_string(s) +
                            " maps logical array " +
                            std::to_string(logical) +
                            " onto retired physical array " +
                            std::to_string(phys));
                }
            }
        }
    }

    rep.violations.insert(rep.violations.begin(),
                          structural.violations.begin(),
                          structural.violations.end());
    return rep;
}

void
auditOrDie(const AuditReport &rep, const std::string &what)
{
    if (rep.ok())
        return;
    nc_fatal("band-plan audit of %s failed:\n%s", what.c_str(),
             rep.summary().c_str());
}

void
auditPlanOrDie(const core::CompiledModel &model)
{
    auditOrDie(auditPlan(model),
               "'" + model.network().name + "'");
}

} // namespace nc::mapping

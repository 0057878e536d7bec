/**
 * @file
 * Unit tests of the static band-plan auditor: the range-level
 * disjointness/liveness rules on hand-built plans (including
 * deliberately broken ones the engine would never emit), the
 * fail-fast gate, and auditPlan() over real compiled models in both
 * residency regimes and all engine backends.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/geometry.hh"
#include "core/engine.hh"
#include "mapping/plan.hh"
#include "mapping/plan_audit.hh"

namespace
{

using namespace nc;
using core::BackendKind;
using mapping::AuditRange;
using mapping::AuditReport;
using mapping::auditRanges;
using mapping::BatchBandPlan;

/** A one-image-slot resident banding over @p filters arrays. */
BatchBandPlan
residentBands(uint64_t filters, unsigned scratch,
              const cache::Geometry &geom)
{
    return mapping::planBatchBands(filters, scratch, geom, true);
}

AuditRange
band(const std::string &label, uint64_t base, uint64_t arrays,
     uint32_t epoch = AuditRange::kAllEpochs, uint32_t unit = 0)
{
    AuditRange r;
    r.label = label;
    r.base = base;
    r.arrays = arrays;
    r.epoch = epoch;
    r.unit = unit;
    return r;
}

TEST(PlanAudit, CleanResidentPlanPasses)
{
    cache::Geometry geom; // 4480 arrays
    auto bands4 = residentBands(8, 2, geom);
    std::vector<AuditRange> rs = {
        band("conv a", 0, 4, AuditRange::kAllEpochs, 1),
        band("conv b", 4, 4, AuditRange::kAllEpochs, 2),
        band("scratch 0", 8, 1, AuditRange::kAllEpochs, 3),
        band("scratch 1", 9, 1, AuditRange::kAllEpochs, 4),
    };
    AuditReport rep = auditRanges(rs, geom, bands4);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_EQ(rep.rangesChecked, 4u);
    EXPECT_GT(rep.pairsChecked, 0u);
    EXPECT_EQ(rep.summary(), "ok");
}

TEST(PlanAudit, ConcurrentOverlapIsNamedInTheViolation)
{
    cache::Geometry geom;
    auto bands = residentBands(8, 1, geom);
    std::vector<AuditRange> rs = {
        band("conv 'mix1/b0/1x1' filter band", 0, 4,
             AuditRange::kAllEpochs, 1),
        band("conv 'mix1/b1/3x3' filter band", 2, 4,
             AuditRange::kAllEpochs, 2),
    };
    AuditReport rep = auditRanges(rs, geom, bands);
    ASSERT_FALSE(rep.ok());
    // The diagnostic must name both ranges and their extents.
    EXPECT_NE(rep.violations[0].message.find("mix1/b0/1x1"),
              std::string::npos)
        << rep.summary();
    EXPECT_NE(rep.violations[0].message.find("mix1/b1/3x3"),
              std::string::npos)
        << rep.summary();
    EXPECT_NE(rep.violations[0].message.find("[0, 4)"),
              std::string::npos)
        << rep.summary();
}

TEST(PlanAudit, SerialEpochsMayReuseArrays)
{
    cache::Geometry geom;
    auto bands = mapping::planBatchBands(10000, 1, geom, false);
    ASSERT_FALSE(bands.resident);
    std::vector<AuditRange> rs = {
        band("stage 0 band", 1, 8, /*epoch=*/0, /*unit=*/0),
        band("stage 1 band", 1, 8, /*epoch=*/1, /*unit=*/0),
    };
    EXPECT_TRUE(auditRanges(rs, geom, bands).ok());

    // The same arrays in the SAME epoch but different units is the
    // race the auditor exists to catch.
    rs[1].epoch = 0;
    rs[1].unit = 1;
    EXPECT_FALSE(auditRanges(rs, geom, bands).ok());
}

TEST(PlanAudit, OneUnitMayTimeShareOnlyTheIdenticalBand)
{
    cache::Geometry geom;
    auto bands = mapping::planBatchBands(10000, 1, geom, false);
    // Two layers of one streaming branch share one identical band.
    std::vector<AuditRange> rs = {
        band("conv a", 1, 8, 0, 0),
        band("conv b", 1, 8, 0, 0),
    };
    EXPECT_TRUE(auditRanges(rs, geom, bands).ok());

    // A partial overlap within the unit is a layout bug even though
    // the unit is serial with itself.
    rs[1].base = 5;
    AuditReport rep = auditRanges(rs, geom, bands);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.violations[0].message.find("partially overlap"),
              std::string::npos)
        << rep.summary();
}

TEST(PlanAudit, GeometryBoundsAreEnforced)
{
    cache::Geometry geom; // 4480 arrays
    auto bands = residentBands(4480, 1, geom);
    std::vector<AuditRange> rs = {
        band("conv beyond the cache", 4478, 4,
             AuditRange::kAllEpochs, 1),
    };
    AuditReport rep = auditRanges(rs, geom, bands);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.violations[0].message.find("geometry"),
              std::string::npos)
        << rep.summary();

    EXPECT_FALSE(
        auditRanges({band("empty", 0, 0)}, geom, bands).ok());
}

TEST(PlanAudit, ImageReplicasMustConfineRangesToOneFootprint)
{
    cache::Geometry geom;
    auto bands = residentBands(8, 2, geom); // perImage=10, many slots
    ASSERT_GT(bands.imageSlots, 1u);
    // A range inside the cache but escaping slot 0's footprint would
    // be clobbered by replica 1.
    std::vector<AuditRange> rs = {
        band("conv escaping its slot", 8, 4,
             AuditRange::kAllEpochs, 1),
    };
    AuditReport rep = auditRanges(rs, geom, bands);
    ASSERT_FALSE(rep.ok());
    EXPECT_NE(rep.violations[0].message.find("per-image footprint"),
              std::string::npos)
        << rep.summary();
}

TEST(PlanAudit, BandingArithmeticIsChecked)
{
    cache::Geometry geom;
    BatchBandPlan broken = residentBands(8, 2, geom);
    broken.perImageArrays = 9; // != filters + scratch
    EXPECT_FALSE(auditRanges({}, geom, broken).ok());

    BatchBandPlan streaming =
        mapping::planBatchBands(10000, 2, geom, false);
    ASSERT_FALSE(streaming.resident);
    streaming.imageSlots = 2; // streaming must pin one slot
    EXPECT_FALSE(auditRanges({}, geom, streaming).ok());

    BatchBandPlan replicas = residentBands(2000, 2, geom);
    replicas.imageSlots = 3; // 3 * 2002 > 4480
    EXPECT_FALSE(auditRanges({}, geom, replicas).ok());
}

TEST(PlanAuditDeath, OverlappingPlanIsRejectedWithNames)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    cache::Geometry geom;
    auto bands = residentBands(8, 1, geom);
    std::vector<AuditRange> rs = {
        band("conv 'stem' filter band", 0, 4,
             AuditRange::kAllEpochs, 1),
        band("conv 'head' filter band", 3, 2,
             AuditRange::kAllEpochs, 2),
    };
    // The same gate Engine::compile runs: nc_fatal naming both bands.
    EXPECT_EXIT(
        mapping::auditOrDie(auditRanges(rs, geom, bands), "'test'"),
        ::testing::ExitedWithCode(1),
        "stem.*head.*overlap while concurrently live");
}

// --- auditPlan over real compiled models ---------------------------

TEST(PlanAudit, CompiledModelsPassInEveryBackend)
{
    dnn::Network net;
    net.name = "audit-net";
    net.stages.push_back(dnn::singleOpStage(
        "c1", dnn::conv("c1", 6, 6, 2, 3, 3, 3, 1, true)));
    net.stages.push_back(dnn::singleOpStage(
        "p1", dnn::maxPool("p1", 6, 6, 3, 2, 2, 2)));

    for (BackendKind kind :
         {BackendKind::Analytic, BackendKind::Reference,
          BackendKind::Functional}) {
        core::EngineOptions opts;
        opts.backend = kind;
        opts.threads = 2;
        auto model = core::Engine(opts).compile(net);
        AuditReport rep = mapping::auditPlan(model);
        EXPECT_TRUE(rep.ok())
            << core::backendKindName(kind) << ": " << rep.summary();
        if (kind == BackendKind::Functional) {
            EXPECT_GT(rep.rangesChecked, 0u);
        }
    }
}

TEST(PlanAudit, StreamingCompilePassesTheAudit)
{
    // The 6-array geometry from the batch-parity harness forces the
    // streaming regime (bands time-share across stages).
    core::EngineOptions opts;
    opts.backend = BackendKind::Functional;
    opts.threads = 2;
    opts.config.geometry.slices = 1;
    opts.config.geometry.waysPerSlice = 6;
    opts.config.geometry.banksPerWay = 1;
    opts.config.geometry.subarraysPerBank = 1;
    opts.config.geometry.arraysPerSubarray = 1;

    dnn::Network net;
    net.name = "audit-streaming";
    net.stages.push_back(dnn::singleOpStage(
        "c1", dnn::conv("c1", 5, 5, 2, 3, 3, 4, 1, true)));
    net.stages.push_back(dnn::singleOpStage(
        "c2", dnn::conv("c2", 5, 5, 4, 3, 3, 4, 1, true)));

    auto model = core::Engine(opts).compile(net);
    ASSERT_FALSE(model.batchBands().resident);
    EXPECT_EQ(model.batchBands().imageSlots, 1u);
    AuditReport rep = mapping::auditPlan(model);
    EXPECT_TRUE(rep.ok()) << rep.summary();
    EXPECT_GT(rep.rangesChecked, 0u);
}

} // namespace

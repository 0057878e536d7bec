/**
 * @file
 * Unit tests of the runtime array-ownership race detector: the
 * Registry claim/release/check rules (live in every build), the
 * ClaimScope RAII nesting rules, and the Array access hook that turns
 * a cross-task touch into a deterministic abort (debug builds).
 */

#include <gtest/gtest.h>

#include <thread>

#include "cache/compute_cache.hh"
#include "common/thread_pool.hh"
#include "sram/array.hh"
#include "sram/ownership.hh"

namespace
{

using namespace nc;
namespace own = sram::ownership;

TEST(Ownership, UnclaimedAccessInSerialPhasesPasses)
{
    own::Registry reg(8);
    // No claims anywhere: pinning/readback-style access is fine.
    reg.checkAccess(0);
    reg.checkAccess(7);
    EXPECT_EQ(reg.arrays(), 8u);
}

TEST(Ownership, ClaimsAreReentrantAndReleaseRestoresNeutrality)
{
    own::Registry reg(8);
    reg.claim(2, 4, "outer kernel");
    reg.claim(3, 2, "inner kernel"); // same thread: nests, no abort
    reg.checkAccess(3);              // owned by us
    reg.release(3, 2);
    reg.checkAccess(3); // still owned through the outer claim
    reg.release(2, 4);

    // Fully released: another thread may now claim the same arrays.
    std::thread t([&] {
        reg.claim(2, 4, "next job");
        reg.checkAccess(4);
        reg.release(2, 4);
    });
    t.join();
}

TEST(Ownership, ClaimScopeWithNullRegistryOrEmptyRangeIsANoOp)
{
    own::Registry reg(8);
    {
        own::ClaimScope none(nullptr, own::Range{0, 4}, 0, "no reg");
        own::ClaimScope empty(&reg, own::Range{0, 0}, 0, "empty");
        own::ClaimScope hollow(&reg, std::vector<own::Range>{}, 0,
                               "no ranges");
    }
    // Nothing was claimed, so a foreign thread may take everything.
    std::thread t([&] {
        reg.claim(0, 8, "sweep");
        reg.release(0, 8);
    });
    t.join();
}

TEST(Ownership, OffsetDisplacesEveryRangeOfAScope)
{
    if (!own::kEnabled)
        GTEST_SKIP() << "detector compiled out under NDEBUG";
    own::Registry reg(16);
    std::vector<own::Range> rs = {{0, 2}, {5, 1}};
    {
        // The batch image-slot displacement: slot 1 of an 8-array
        // footprint claims [8, 10) and [13, 14).
        own::ClaimScope slot1(&reg, rs, 8, "image slot 1");
        reg.checkAccess(8);
        reg.checkAccess(13);
        // Slot 0's copies stay free for a sibling task.
        std::thread t([&] {
            own::ClaimScope slot0(&reg, rs, 0, "image slot 0");
            reg.checkAccess(0);
            reg.checkAccess(5);
        });
        t.join();
    }
}

TEST(OwnershipDeath, SiblingClaimOverlapAbortsAtClaimTime)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            own::Registry reg(8);
            std::thread t(
                [&] { reg.claim(0, 4, "conv filter store"); });
            t.join(); // claim deliberately left held
            reg.claim(2, 1, "eltwise merge kernel");
        },
        "array-ownership race.*eltwise merge kernel.*"
        "conv filter store");
}

TEST(OwnershipDeath, TouchingAnotherTasksArrayAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            own::Registry reg(8);
            std::thread t([&] { reg.claim(2, 1, "conv window"); });
            t.join(); // claim deliberately left held
            reg.checkAccess(2);
        },
        "array-ownership race on array 2.*owned by another task.*"
        "conv window");
}

TEST(OwnershipDeath, ClaimHoldersMayNotWanderOutsideTheirClaims)
{
    if (!own::kEnabled)
        GTEST_SKIP() << "detector compiled out under NDEBUG";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            own::Registry reg(8);
            own::ClaimScope scope(&reg, own::Range{0, 2}, 0,
                                  "maxPool kernel");
            reg.checkAccess(5); // unclaimed array, but we hold claims
        },
        "array-ownership race on array 5.*outside its claims");
}

TEST(OwnershipDeath, ArrayHookAbortsCrossTaskRowAccess)
{
    if (!own::kEnabled)
        GTEST_SKIP() << "detector compiled out under NDEBUG";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            cache::ComputeCache cc;
            sram::Array &arr = cc.array(0);
            std::thread t([&] {
                cc.ownershipRegistry()->claim(0, 1, "other kernel");
            });
            t.join(); // claim deliberately left held
            arr.opZero(3); // injected cross-task access
        },
        "array-ownership race on array 0");
}

TEST(Ownership, PoolTasksGetDistinctTokensFromThreadIdentity)
{
    if (!own::kEnabled)
        GTEST_SKIP() << "detector compiled out under NDEBUG";
    // Claims made inside pool tasks are owned by the TASK (not the
    // worker thread): after the join the claim's owner token can never
    // collide with a later task, and disjoint per-task claims within
    // one parallelFor coexist.
    own::Registry reg(16);
    common::ThreadPool pool(4);
    pool.parallelFor(8, [&](size_t i) {
        own::ClaimScope own_(&reg, own::Range{i * 2, 2}, 0,
                             "per-task slice");
        reg.checkAccess(i * 2);
        reg.checkAccess(i * 2 + 1);
    });
    // All released on task exit: the main thread can sweep everything.
    reg.claim(0, 16, "post-join sweep");
    reg.release(0, 16);
}

} // namespace

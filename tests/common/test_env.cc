/**
 * @file
 * Startup rejection of unknown NC_-prefixed environment variables:
 * NC_THREAD=4 must be a hard error naming NC_THREADS, not a silently
 * ignored typo — and the check must be wired into the entry points
 * (ThreadPool construction), not just callable.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"
#include "common/thread_pool.hh"

namespace
{

using namespace nc;

TEST(EnvCheck, KnownAndUnprefixedVariablesPass)
{
    setenv("NC_THREADS", "2", 1);
    setenv("SOME_OTHER_TOOL_OPT", "whatever", 1);
    common::checkEnvOrDie(); // must not die
    unsetenv("NC_THREADS");
    unsetenv("SOME_OTHER_TOOL_OPT");
}

TEST(EnvCheckDeath, TyposDieNamingTheNearestKnownVariable)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    struct Case
    {
        const char *name;
        const char *expect;
    } cases[] = {
        {"NC_THREAD", "did you mean NC_THREADS"},
        {"NC_FAULT", "did you mean NC_FAULTS"},
        {"NC_SIMDS", "did you mean NC_SIMD"},
        {"NC_", "unknown environment variable NC_"},
        // The retired trace switch is no longer a knob: setting it
        // fails loudly instead of silently tracing nothing.
        {"NC_DEBUG", "unknown environment variable NC_DEBUG .*known: "
                     "NC_FAULTS, NC_SIMD, NC_THREADS\\)"},
    };
    for (const auto &[name, expect] : cases) {
        setenv(name, "1", 1);
        EXPECT_DEATH(common::checkEnvOrDie(), expect) << name;
        unsetenv(name);
    }
}

TEST(EnvCheckDeath, ThreadPoolConstructionRunsTheCheck)
{
    // The death-test child re-execs the binary, so checkEnvOnce()'s
    // once-flag is fresh there and the ThreadPool constructor is the
    // first (and fatal) caller.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    setenv("NC_TYPO", "1", 1);
    EXPECT_DEATH({ common::ThreadPool pool(1); },
                 "unknown environment variable NC_TYPO");
    unsetenv("NC_TYPO");
}

} // namespace

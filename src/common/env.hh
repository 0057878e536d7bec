/**
 * @file
 * Startup validation of NC_-prefixed environment variables.
 *
 * Every knob this simulator reads from the environment begins with
 * "NC_", and each reader parses its value strictly (thread_pool.cc,
 * sram/kernels.cc, sram/faults.cc). That strictness is worthless if the
 * variable name itself is typo'd: NC_FAULT=kill=0.5 silently runs
 * the fault-free configuration it was meant to perturb. So startup
 * scans the whole environment once and dies on any unrecognized
 * NC_-prefixed name, suggesting the nearest known one.
 */

#ifndef NC_COMMON_ENV_HH
#define NC_COMMON_ENV_HH

namespace nc::common
{

/**
 * Scan the process environment and die (nc_fatal) on the first
 * NC_-prefixed variable that is not a known configuration knob,
 * naming the nearest known variable. Unconditional — tests call this
 * directly; production code goes through checkEnvOnce().
 */
void checkEnvOrDie();

/**
 * checkEnvOrDie() at most once per process. Invoked from the Engine
 * and ThreadPool constructors so any entry point that configures the
 * simulator trips over a typo'd knob before it can mislead a run.
 */
void checkEnvOnce();

} // namespace nc::common

#endif // NC_COMMON_ENV_HH

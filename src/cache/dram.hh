/**
 * @file
 * Main-memory channel model.
 *
 * The paper times way-loading with a micro-benchmark on the real
 * machine (set-address decoding reverse-engineered, VTune-profiled).
 * We substitute a bandwidth/latency channel model: an effective
 * bandwidth that reflects the strided set-granular access pattern
 * rather than peak DDR4 numbers, calibrated so filter loading lands
 * at ~46% of batch-1 inference latency (paper Figure 14, which
 * bench/fig14_breakdown reproduces). DRAM energy is not metered here
 * but from EnergyConfig::dramPjPerByte (core/energy.hh).
 */

#ifndef NC_CACHE_DRAM_HH
#define NC_CACHE_DRAM_HH

#include <cstdint>

#include "common/units.hh"

namespace nc::cache
{

/** Effective DRAM channel seen by filter/input loading. */
struct DramModel
{
    /**
     * Effective bandwidth of way-granular streaming loads. The 64 GB
     * DDR4 system peaks far higher, but set-decoded strided fills
     * sustain roughly this much (calibrated so filter loading is ~46%
     * of batch-1 latency, Figure 14).
     */
    Bandwidth effectiveBw{11.0e9};

    /** First-access latency of a stream, picoseconds. */
    double streamLatencyPs = 80e3; // 80 ns

    /**
     * Time to stream @p bytes into (or out of) the cache. Defined out
     * of line (dram.cc) so the translation unit anchors at least one
     * symbol.
     */
    double transferPs(uint64_t bytes) const;
};

} // namespace nc::cache

#endif // NC_CACHE_DRAM_HH

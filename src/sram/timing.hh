/**
 * @file
 * SRAM array timing / energy / area parameters.
 *
 * The paper characterizes an 8KB computational SRAM in 28 nm SPICE and
 * scales the energy numbers to the 22 nm Xeon E5-2697 v3 node. The
 * architectural model only ever consumes these scalars, so this table is
 * the substitution for the authors' circuit work: bench/table5_array_model
 * prints it, and tests/sram/test_timing.cc pins it to the paper.
 *
 * Published values (paper §V):
 *  - compute cycle:       1022 ps (0.66 V RWL, 6-sigma robust)
 *  - normal SRAM read:     654 ps
 *  - compute frequency:    2.5 GHz (conservatively chosen)
 *  - SRAM access freq:     4.0 GHz
 *  - 256-bit access energy: 13.9 pJ @ 28 nm -> 8.6 pJ @ 22 nm
 *  - 256-lane compute op:   25.7 pJ @ 28 nm -> 15.4 pJ @ 22 nm
 *  - area overhead:         7.5% per 8KB array, < 2% of processor die
 */

#ifndef NC_SRAM_TIMING_HH
#define NC_SRAM_TIMING_HH

#include "common/units.hh"

namespace nc::sram
{

/** Clocking of an SRAM array in its two operating modes. */
struct TimingParams
{
    /** Clock used while executing bit-line compute operations. */
    Clock computeClock{2.5_GHz};
    /** Clock used for conventional read/write accesses. */
    Clock accessClock{4.0_GHz};

    /** Raw circuit delays from the paper's SPICE characterization. */
    double computeDelayPs = 1022.0;
    double readDelayPs = 654.0;

    /** Ratio compute delay / read delay (paper quotes ~1.6x). */
    double computeSlowdown() const { return computeDelayPs / readDelayPs; }
};

/** Per-cycle energy of one array (whole 256-lane row operation). */
struct EnergyParams
{
    /** Energy of a 256-bit conventional access cycle, picojoules. */
    double accessPj = 8.6;
    /** Energy of a 256-lane compute cycle, picojoules. */
    double computePj = 15.4;

    /** 28 nm values before scaling to the 22 nm host node. */
    static EnergyParams
    node28nm()
    {
        return EnergyParams{13.9, 25.7};
    }

    /** Default: scaled to the 22 nm Xeon E5-2697 v3. */
    static EnergyParams
    node22nm()
    {
        return EnergyParams{8.6, 15.4};
    }
};

/** Area model of one 8KB array, after adding compute peripherals. */
struct AreaParams
{
    /** Base array footprint (paper Figure 12), micrometres. */
    double arrayWidthUm = 263.0;
    double arrayHeightUm = 108.0 * 2 + 120.0;
    /** Extra height attributed to compute logic, micrometres. */
    double computeLogicUm = 7.0;
    /** Fractional area overhead of the compute peripherals. */
    double peripheralOverhead = 0.075;
    /** Fraction of the whole processor die the overhead represents. */
    double dieOverhead = 0.02;
    /** 8T transpose bit-cell TMU macro area, mm^2 (paper Figure 8). */
    double tmuAreaMm2 = 0.019;
};

} // namespace nc::sram

#endif // NC_SRAM_TIMING_HH

/**
 * @file
 * Seeded, deterministic SRAM fault injection.
 *
 * The paper repurposes live LLC arrays as compute, and live SRAM
 * fails: manufacturing stuck-at cells, radiation-induced transient
 * flips, and whole arrays lost to peripheral defects. This module is
 * the injection half of the fault-tolerance subsystem — it decides,
 * from one seed and a handful of rates, which physical arrays carry
 * which defects, and applies them at the same sram::Array access
 * funnel the ownership race detector uses (checkRow, the one choke
 * point every conventional access and every compute micro-op passes
 * through per touched row).
 *
 * Fault semantics are "sense-time": whenever a word line is touched,
 * stuck cells clamp to their stuck value, a killed array's touched
 * row scrambles to deterministic garbage, and transient flips hit a
 * pseudo-random bit line of the touched row with the configured
 * per-touch probability. Writes can therefore momentarily store the
 * ideal value, but any later touch of the row — and every compute op
 * senses its operand rows — re-applies the defect, which is how the
 * real circuit behaves (the cell holds, the bit line lies).
 *
 * Everything is keyed by *physical* flat array index, so the
 * detection/repair layers (cache/health.hh, the ComputeCache remap)
 * can retire a physical array while the logical placement keeps its
 * indices. Determinism: all randomness is counter-mode hashing of
 * (seed, array, site, touch-count) — no global RNG state, so the same
 * configuration faults the same cells on every run and thread count.
 *
 * Cost contract: an array with no fault record carries exactly one
 * extra pointer test per touched row (the `flt` null check in
 * Array::checkRow), in release builds too — unlike the ownership
 * detector, faults must be injectable in optimized benchmarking
 * builds. With no registry configured, ComputeCache never attaches
 * records at all and the subsystem is strictly zero-state.
 */

#ifndef NC_SRAM_FAULTS_HH
#define NC_SRAM_FAULTS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sram/bitrow.hh"

namespace nc::sram::faults
{

/** One stuck-at bit cell: (row, lane) clamps to `value` on touch. */
struct StuckCell
{
    unsigned row = 0;
    unsigned lane = 0;
    bool value = false;
};

/**
 * Fault-injection configuration, carried in core::EngineOptions and
 * parseable from the NC_FAULTS environment variable. Rates are
 * per-array (stuck/kill: probability an array carries that defect)
 * or per-row-touch (transient: probability one touch flips a bit).
 */
struct Config
{
    uint64_t seed = 0xfa017;

    /** Probability an array carries one stuck-at cell. */
    double stuckRate = 0.0;
    /** Probability a touched row suffers one transient bit flip. */
    double transientRate = 0.0;
    /** Probability an array is wholly dead (scrambled on touch). */
    double killRate = 0.0;

    /** Explicitly dead physical arrays (deterministic tests/demos). */
    std::vector<uint64_t> killArrays;
    /** Explicit stuck cells by physical array index. */
    std::vector<std::pair<uint64_t, StuckCell>> stuckCells;

    /** Run the compile-time BIST march scan (retires bad arrays). */
    bool bist = true;
    /** Verify guard rows after every pass (runtime detection). */
    bool canary = true;
    /** Detect→repair→retry attempts per run/pass before dying. */
    unsigned retryBudget = 4;

    /** Whether any fault source is configured at all. */
    bool
    enabled() const
    {
        return stuckRate > 0 || transientRate > 0 || killRate > 0 ||
               !killArrays.empty() || !stuckCells.empty();
    }

};

/**
 * Overlay the NC_FAULTS environment variable onto @p base and
 * return the result. Syntax: comma-separated key=value pairs —
 * seed=N, stuck=R, transient=R, kill=R, kill_list=I:J:K,
 * bist=0|1, canary=0|1, retries=N. Malformed keys, values, or
 * rates outside [0, 1] are hard errors (nc_fatal), with the
 * nearest known key named on a typo — consistent with the strict
 * NC_THREADS/NC_SIMD parsing.
 */
Config configFromEnv(Config base = {});

class Registry;

/**
 * The fault record of one physical array. Attached to the
 * materialized sram::Array via setFaults(); onTouch() is the hot
 * hook, called by Array::checkRow for every touched row.
 */
class ArrayFaults
{
  public:
    /** Clamp/scramble/flip @p row (cells[r] of the array). */
    void onTouch(BitRow &row, unsigned r);

    bool killed() const { return dead; }
    const std::vector<StuckCell> &stuck() const { return stuckList; }
    /** Touches recorded so far (deterministic transient counter). */
    uint64_t touches() const { return nTouches; }
    /** Whether any defect (or a pending flip) exists at all. */
    bool faulty() const;

  private:
    friend class Registry;

    uint64_t index = 0;      ///< physical flat array index
    uint64_t seed = 0;
    unsigned cols = 256;
    bool dead = false;
    double transientRate = 0.0;
    std::vector<StuckCell> stuckList;
    /** One-shot (row, lane) flips applied at the next touch. */
    std::vector<std::pair<unsigned, unsigned>> pendingFlips;
    uint64_t nTouches = 0;
};

/**
 * Per-ComputeCache fault registry: one optional ArrayFaults record
 * per physical array, fully decided at construction from the Config
 * (so the hot path never allocates or locks). Arrays whose record is
 * null are ideal and pay only the null test.
 */
class Registry
{
  public:
    Registry(const Config &cfg, uint64_t narrays, unsigned rows,
             unsigned cols);

    const Config &config() const { return cfg; }
    uint64_t arrays() const { return n; }

    /** The record of physical array @p index (null = ideal). */
    ArrayFaults *
    recordFor(uint64_t index)
    {
        return index < n ? records[index].get() : nullptr;
    }
    const ArrayFaults *
    recordFor(uint64_t index) const
    {
        return index < n ? records[index].get() : nullptr;
    }

    /** How many arrays carry any static defect (stuck or dead). */
    uint64_t staticFaultCount() const;

    /** @name Test/diagnostic injection (deterministic, targeted) */
    /// @{
    /** Mark physical array @p index dead. */
    void killArray(uint64_t index);
    /** Add a stuck-at cell to physical array @p index. */
    void addStuck(uint64_t index, unsigned row, unsigned lane,
                  bool value);
    /**
     * Schedule a one-shot transient: the next touch of physical
     * array @p index flips (row, lane). Models a mid-run soft error
     * at a deterministic point.
     */
    void injectFlip(uint64_t index, unsigned row, unsigned lane);
    /// @}

  private:
    ArrayFaults &ensureRecord(uint64_t index);

    Config cfg;
    uint64_t n = 0;
    unsigned rows = 256, cols = 256;
    std::vector<std::unique_ptr<ArrayFaults>> records;
};

} // namespace nc::sram::faults

#endif // NC_SRAM_FAULTS_HH

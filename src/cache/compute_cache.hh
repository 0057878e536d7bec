/**
 * @file
 * ComputeCache: the LLC with every SRAM array morphed into a vector
 * unit.
 *
 * The container instantiates arrays lazily: timing-only studies never
 * touch bits (the analytic cost model works from the geometry alone),
 * while the functional executor materializes just the arrays it maps
 * data onto. All arrays execute in SIMD lock-step when computing — the
 * controller broadcasts one instruction stream — so the compute-cycle
 * clock of the whole cache is the maximum over member arrays, which
 * lockstepCycles() reports. The functional conv kernel simulates the
 * broadcast literally: a pass's arrays run side by side as members of
 * one group array (sram::Array member width), so each host op serves
 * them all, and every array is charged what it would count alone.
 * The cache holds arrays only: the DRAM channel and intra-slice bus
 * timing models belong to core::CostModel.
 */

#ifndef NC_CACHE_COMPUTE_CACHE_HH
#define NC_CACHE_COMPUTE_CACHE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/bits.hh" // for the C++20 guard: <=> below mis-parses pre-C++20
#include "cache/geometry.hh"
#include "cache/health.hh"
#include "sram/array.hh"
#include "sram/faults.hh"
#include "sram/ownership.hh"

namespace nc::cache
{

/** Coordinates of one array inside the LLC. */
struct ArrayCoord
{
    unsigned slice = 0;
    unsigned way = 0;
    unsigned bank = 0;
    unsigned array = 0; ///< index within the bank [0, 4)

    auto operator<=>(const ArrayCoord &) const = default;
};

/** The whole compute-capable LLC. */
class ComputeCache
{
  public:
    explicit ComputeCache(Geometry geom = Geometry::xeonE5_35MB());

    const Geometry &geometry() const { return geom; }

    /**
     * Lazily materialize and return the array at logical index
     * @p flat in [0, usableArrays()).
     */
    sram::Array &array(uint64_t flat);
    size_t materializedCount() const { return arrays.size(); }

    /**
     * SIMD lock-step compute cycles: the maximum compute-cycle count
     * over all materialized arrays (every array sees every broadcast
     * instruction, so the slowest defines the wall clock).
     */
    uint64_t lockstepCycles() const;

    /** Sum of compute cycles over materialized arrays (for energy). */
    uint64_t totalComputeCycles() const;
    /** Sum of access cycles over materialized arrays. */
    uint64_t totalAccessCycles() const;

    void resetCycles();

    /**
     * The array-ownership race detector of this cache (debug builds;
     * null under NDEBUG — the hooks in sram::Array are compiled out
     * there too). Kernels claim flat-array ranges against it via
     * sram::ownership::ClaimScope before fanning out.
     */
    sram::ownership::Registry *
    ownershipRegistry() const
    {
        return ownReg.get();
    }

    /** @name Fault injection, health, and self-healing remap
     *
     * When faults are configured the cache keeps a logical→physical
     * translation in front of its arrays: placement, kernels, and
     * the audit all keep addressing dense logical indices, while
     * retired physical arrays simply drop out of the map. The table
     * starts as the identity over BIST survivors; a runtime
     * retirement substitutes the highest spare physical array for
     * the casualty's logical slot and shrinks usable capacity by
     * one. Unconfigured caches keep an empty table and translate
     * through two branch-free checks.
     */
    /// @{
    /**
     * Arm fault injection. Must run before any array materializes
     * (records attach at materialization); creates the registry and
     * the health map.
     */
    void configureFaults(const sram::faults::Config &cfg);
    bool faultsConfigured() const { return fltReg != nullptr; }
    sram::faults::Registry *faultRegistry() { return fltReg.get(); }
    const sram::faults::Registry *
    faultRegistry() const
    {
        return fltReg.get();
    }
    /** Null until configureFaults(). */
    HealthMap *health() { return healthMap.get(); }
    const HealthMap *health() const { return healthMap.get(); }

    /**
     * March-scan every suspect array (cache/health.hh), retire the
     * failures, and rebuild the remap over the survivors. Returns
     * how many arrays this scan retired.
     */
    uint64_t bistScanAndRemap();

    /**
     * Schedule a one-shot transient flip of (row, lane) in physical
     * array @p physical (a mid-run soft error at a deterministic
     * point). Use this instead of faultRegistry()->injectFlip():
     * creating the record may happen after the struck array
     * materialized with a null record pointer, so the cache re-binds
     * the record to the live array here.
     */
    void injectFlip(uint64_t physical, unsigned row, unsigned lane);

    /** Arrays usable for placement (total minus retired). */
    uint64_t
    usableArrays() const
    {
        return remap.empty() ? geom.totalArrays() : remap.size();
    }

    /** The physical array behind logical index @p logical, which
     * must be below usableArrays(). */
    uint64_t physicalOf(uint64_t logical) const;

    /**
     * Retire the physical array behind @p logical and substitute the
     * highest spare: the last logical index's physical array takes
     * over @p logical (re-bound and zeroed if materialized) and
     * usableArrays() shrinks by one. The caller guarantees a spare
     * exists — @p logical must be below usableArrays() - 1, i.e. the
     * tail entry is not itself live. Returns the substituted
     * physical index.
     */
    uint64_t retireAndSubstitute(uint64_t logical, std::string reason);

    /**
     * Retire the physical array behind @p logical with no
     * substitution: the remap compacts over all healthy survivors,
     * reshuffling the whole logical space. Every materialized
     * survivor is re-bound to its new logical index and wiped, so
     * the caller must re-place and re-pin the entire plan afterward
     * — this is the shed-capacity path (dropping an image slot,
     * degrading to streaming), not the surgical spare substitution.
     */
    void retireCompact(uint64_t logical, std::string reason);

    /** The array at logical @p flat if materialized (else null). */
    const sram::Array *peekArray(uint64_t flat) const;
    /// @}

  private:
    Geometry geom;
    std::map<uint64_t, std::unique_ptr<sram::Array>> arrays;
    std::unique_ptr<sram::ownership::Registry> ownReg;
    std::unique_ptr<sram::faults::Registry> fltReg;
    std::unique_ptr<HealthMap> healthMap;
    /** Logical→physical translation (empty = identity, no faults). */
    std::vector<uint64_t> remap;
};

} // namespace nc::cache

#endif // NC_CACHE_COMPUTE_CACHE_HH

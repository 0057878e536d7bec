#include "cache/compute_cache.hh"

#include <algorithm>

#include "common/logging.hh"

namespace nc::cache
{

ComputeCache::ComputeCache(Geometry geom_) : geom(std::move(geom_))
{
    if (sram::ownership::kEnabled)
        ownReg = std::make_unique<sram::ownership::Registry>(
            geom.totalArrays());
}

uint64_t
ComputeCache::physicalOf(uint64_t logical) const
{
    // Retirements shrink the logical space below totalArrays().
    nc_assert(logical < usableArrays(),
              "flat index %llu out of range (%llu usable arrays)",
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(usableArrays()));
    return remap.empty() ? logical : remap[logical];
}

sram::Array &
ComputeCache::array(uint64_t flat)
{
    // Callers address logical indices; the self-healing remap picks
    // the physical array behind them (identity when no faults are
    // configured — see the class comment).
    uint64_t phys = physicalOf(flat);
    auto it = arrays.find(phys);
    if (it == arrays.end()) {
        // Materialization mutates the map and therefore only happens
        // from serial phases (kernel preparation, replica pinning);
        // parallel tasks always hit the find() fast path above.
        it = arrays
                 .emplace(phys, std::make_unique<sram::Array>(
                                    geom.arrayRows, geom.arrayCols))
                 .first;
        // Ownership claims are made in logical coordinates; faults
        // belong to the physical silicon.
        it->second->setOwnership(ownReg.get(), flat);
        if (fltReg)
            it->second->setFaults(fltReg->recordFor(phys));
    }
    return *it->second;
}

const sram::Array *
ComputeCache::peekArray(uint64_t flat) const
{
    auto it = arrays.find(physicalOf(flat));
    return it == arrays.end() ? nullptr : it->second.get();
}

void
ComputeCache::configureFaults(const sram::faults::Config &cfg)
{
    nc_assert(!fltReg, "fault injection configured twice");
    nc_assert(arrays.empty(),
              "fault injection configured after %zu arrays "
              "materialized (records attach at materialization)",
              arrays.size());
    fltReg = std::make_unique<sram::faults::Registry>(
        cfg, geom.totalArrays(), geom.arrayRows, geom.arrayCols);
    healthMap = std::make_unique<HealthMap>(geom.totalArrays());
}

uint64_t
ComputeCache::bistScanAndRemap()
{
    nc_assert(healthMap, "bist scan without configured faults");
    uint64_t retired = bistScan(geom, fltReg.get(), *healthMap);
    // Compact the survivors into a dense logical space: placement
    // sees usableArrays() interchangeable arrays and never needs to
    // know which physical ones died.
    remap.clear();
    remap.reserve(geom.totalArrays() - healthMap->retiredCount());
    for (uint64_t i = 0; i < geom.totalArrays(); ++i)
        if (healthMap->healthy(i))
            remap.push_back(i);
    nc_assert(!remap.empty(), "bist retired every array: %s",
              healthMap->summary().c_str());
    return retired;
}

void
ComputeCache::injectFlip(uint64_t physical, unsigned row,
                         unsigned lane)
{
    nc_assert(fltReg, "transient injection without configured faults");
    fltReg->injectFlip(physical, row, lane);
    // The flip may have created the array's first fault record —
    // after the array materialized holding a null record pointer.
    // Re-bind so the live array sees it.
    if (auto it = arrays.find(physical); it != arrays.end())
        it->second->setFaults(fltReg->recordFor(physical));
}

uint64_t
ComputeCache::retireAndSubstitute(uint64_t logical, std::string reason)
{
    nc_assert(healthMap, "retiring array without configured faults");
    if (remap.empty()) {
        // Faults configured but BIST skipped: start from identity.
        remap.resize(geom.totalArrays());
        for (uint64_t i = 0; i < remap.size(); ++i)
            remap[i] = i;
    }
    nc_assert(logical + 1 < remap.size(),
              "retiring logical array %llu with no spare behind it "
              "(%llu usable; retired so far: %s)",
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(remap.size()),
              healthMap->summary().c_str());

    uint64_t casualty = remap[logical];
    healthMap->retire(casualty, std::move(reason));

    uint64_t spare = remap.back();
    remap.pop_back();
    remap[logical] = spare;

    // The casualty may keep its materialized husk (its accrued cycle
    // counts stay in the totals — the work really happened), but the
    // substitute must start clean: re-bind its ownership to the new
    // logical index and wipe any stale state it held as a dropped
    // replica. Guard rows are zero again by construction.
    if (auto it = arrays.find(spare); it != arrays.end()) {
        sram::Array &arr = *it->second;
        arr.setOwnership(ownReg.get(), logical);
        for (unsigned r = 0; r < geom.arrayRows; ++r)
            arr.rowMut(r) = sram::BitRow(geom.arrayCols);
        arr.carrySet(false);
        arr.tagSet(false);
    }
    return spare;
}

void
ComputeCache::retireCompact(uint64_t logical, std::string reason)
{
    nc_assert(healthMap, "retiring array without configured faults");
    nc_assert(logical < usableArrays(),
              "retiring logical array %llu of %llu usable",
              static_cast<unsigned long long>(logical),
              static_cast<unsigned long long>(usableArrays()));
    healthMap->retire(physicalOf(logical), std::move(reason));

    remap.clear();
    remap.reserve(geom.totalArrays() - healthMap->retiredCount());
    for (uint64_t i = 0; i < geom.totalArrays(); ++i)
        if (healthMap->healthy(i))
            remap.push_back(i);
    nc_assert(!remap.empty(), "every array retired: %s",
              healthMap->summary().c_str());

    // Compaction moves every logical index at or above the casualty:
    // re-bind each materialized survivor to its new logical index and
    // wipe its state (the caller re-pins everything).
    for (uint64_t l = 0; l < remap.size(); ++l) {
        auto it = arrays.find(remap[l]);
        if (it == arrays.end())
            continue;
        sram::Array &arr = *it->second;
        arr.setOwnership(ownReg.get(), l);
        for (unsigned r = 0; r < geom.arrayRows; ++r)
            arr.rowMut(r) = sram::BitRow(geom.arrayCols);
        arr.carrySet(false);
        arr.tagSet(false);
    }
}

uint64_t
ComputeCache::lockstepCycles() const
{
    uint64_t worst = 0;
    for (const auto &[idx, arr] : arrays)
        worst = std::max(worst, arr->computeCycles());
    return worst;
}

uint64_t
ComputeCache::totalComputeCycles() const
{
    uint64_t total = 0;
    for (const auto &[idx, arr] : arrays)
        total += arr->computeCycles();
    return total;
}

uint64_t
ComputeCache::totalAccessCycles() const
{
    uint64_t total = 0;
    for (const auto &[idx, arr] : arrays)
        total += arr->accessCycles();
    return total;
}

void
ComputeCache::resetCycles()
{
    for (auto &[idx, arr] : arrays)
        arr->resetCycles();
}

} // namespace nc::cache

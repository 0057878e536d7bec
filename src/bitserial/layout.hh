/**
 * @file
 * Transposed-layout bookkeeping: vector slices and row allocation.
 *
 * In the transposed layout every bit line (lane) holds one element
 * vertically: bit j of the element lives on word line base+j. A VecSlice
 * names such a group of word lines; a RowAllocator hands out
 * non-overlapping slices within one array, mirroring how the mapper
 * carves an array into filter / input / scratchpad / partial-sum /
 * output regions (paper Figure 10).
 *
 * Vector I/O is cycle-free data movement. storeVector / loadVector /
 * loadLane move one array's lanes; on a group array (sram::Array
 * members side by side) storeMembers writes one vector into a
 * strided set of members and loadMemberLanes reads one lane of every
 * member, each in one pass over the slice's rows.
 */

#ifndef NC_BITSERIAL_LAYOUT_HH
#define NC_BITSERIAL_LAYOUT_HH

#include <cstdint>
#include <limits>
#include <span>

#include "sram/array.hh"

namespace nc::bitserial
{

/** Sentinel meaning "no row". */
constexpr unsigned kNoRow = std::numeric_limits<unsigned>::max();

/**
 * A contiguous band of word lines holding one transposed vector:
 * lane i of the array stores element i, LSB on row base.
 */
struct VecSlice
{
    unsigned base = 0; ///< word line of the LSB
    unsigned bits = 0; ///< element width

    /** Word line of bit @p i. */
    unsigned
    row(unsigned i) const
    {
        return base + i;
    }

    /** Sub-slice of @p n bits starting at bit @p lo. */
    VecSlice
    slice(unsigned lo, unsigned n) const
    {
        return VecSlice{base + lo, n};
    }

    bool
    overlaps(const VecSlice &o) const
    {
        return base < o.base + o.bits && o.base < base + bits;
    }
};

/**
 * Sequential word-line allocator for one array. Also owns the array's
 * constant-zero row, which dual-row activation uses to pad uneven
 * operands (sensing {x, 0} yields BL=0, BLB=~x, XOR=x: an add of x+0).
 */
class RowAllocator
{
  public:
    explicit RowAllocator(unsigned total_rows);

    /** Reserve @p bits contiguous word lines. Fatal if out of space. */
    VecSlice alloc(unsigned bits);

    /**
     * The reserved all-zero row. Allocated (once) from the top of the
     * array so data slices can grow from the bottom. The caller is
     * responsible for never writing it.
     */
    unsigned zeroRow();

    unsigned used() const { return next; }
    unsigned remaining() const { return top - next; }
    unsigned capacity() const { return nrows; }

    /** Release everything (zero-row reservation included). */
    void reset();

  private:
    unsigned nrows;
    unsigned next = 0;          ///< first free row at the bottom
    unsigned top;               ///< first reserved row at the top
    unsigned zrow = kNoRow;
};

/**
 * Store @p values into @p slice of @p arr (debug path: pokes bits, no
 * cycles charged). Lane i takes values[i]; extra lanes are zeroed.
 * The word-parallel path batches all 64-lane blocks through one
 * transpose (or bit-plane pack for elements of <= 8 bits) per call,
 * on arena scratch — no per-call heap traffic.
 */
void storeVector(sram::Array &arr, const VecSlice &slice,
                 std::span<const uint64_t> values);

inline void
storeVector(sram::Array &arr, const VecSlice &slice,
            const std::vector<uint64_t> &values)
{
    storeVector(arr, slice, std::span<const uint64_t>(values));
}

/**
 * Store @p count copies of @p value into @p slice (extra lanes
 * zeroed) — the broadcast form of storeVector. No transpose at all:
 * each bit plane is a constant run of @p count lanes.
 */
void storeSplat(sram::Array &arr, const VecSlice &slice,
                uint64_t value, size_t count);

/** Read the elements held by @p slice (debug path, no cycles). */
std::vector<uint64_t> loadVector(const sram::Array &arr,
                                 const VecSlice &slice);

/**
 * Store @p values (elements of <= 8 bits) into @p slice of members
 * first, first + stride, ... of the group array @p arr: each such
 * member ends as storeVector of @p values into a one-member array
 * leaves it (lanes past values.size() zeroed, whatever they held).
 * The values are packed once, only the ceil(values.size() / 64)
 * live words per plane, and written through
 * sram::Array::writeMemberRows.
 */
void storeMembers(sram::Array &arr, const VecSlice &slice,
                  std::span<const uint64_t> values, unsigned first,
                  unsigned stride);

/** Read lane @p lane of @p slice as an unsigned element. */
uint64_t loadLane(const sram::Array &arr, const VecSlice &slice,
                  unsigned lane);

/**
 * Read lane @p lane of @p slice in every member of @p arr: out[j]
 * takes member j's element (out.size() == arr.members()), in one
 * pass over the slice's rows. The rows are touched in loadLane's
 * order, one touch each, so on a one-member array this is loadLane.
 */
void loadMemberLanes(const sram::Array &arr, const VecSlice &slice,
                     unsigned lane, std::span<uint64_t> out);

} // namespace nc::bitserial

#endif // NC_BITSERIAL_LAYOUT_HH

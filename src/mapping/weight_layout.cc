#include "mapping/weight_layout.hh"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/bits.hh"
#include "common/logging.hh"

namespace nc::mapping
{

WeightLayout::WeightLayout(const dnn::ConvOp &op_,
                           const mapping::ConvPlan &plan_,
                           const Geometry &geom_)
    : op(op_), plan(plan_), geom(geom_)
{
}

WeightHome
WeightLayout::homeOf(unsigned m, unsigned c, unsigned k) const
{
    nc_assert(m < op.m && c < op.c && k < op.r * op.s,
              "filter element (%u,%u,%u) out of range", m, c, k);
    const auto &ft = plan.ft;

    unsigned lane;     // within one convolution's lane group
    unsigned byte_idx; // within the bit line's filter byte stack
    if (ft.splitFactor > 1) {
        lane = c * ft.splitFactor + k / ft.effRS;
        byte_idx = k % ft.effRS;
    } else if (ft.packFactor > 1) {
        lane = c / ft.packFactor;
        byte_idx = c % ft.packFactor; // k == 0 for 1x1 filters
    } else {
        lane = c;
        byte_idx = k;
    }

    unsigned array_idx;
    unsigned abs_lane;
    if (plan.convsPerArray >= 1) {
        array_idx = m / plan.convsPerArray;
        unsigned group = m % plan.convsPerArray;
        abs_lane = group * plan.lanesPerConv + lane;
    } else {
        array_idx = m * plan.arraysPerConv + lane / geom.arrayCols;
        abs_lane = lane % geom.arrayCols;
    }

    WeightHome home;
    // Filter banks wider than one slice's compute ways run in serial
    // passes (§IV-B): pass p re-uses the same arrays, and its weights
    // stream after pass p-1's in the DRAM image.
    unsigned compute_arrays = geom.computeArraysPerSlice();
    home.pass = array_idx / compute_arrays;
    array_idx %= compute_arrays;
    unsigned arrays_per_way = geom.arraysPerWay();
    home.coord.slice = 0; // broadcast replicates to other slices
    home.coord.way = array_idx / arrays_per_way;
    unsigned in_way = array_idx % arrays_per_way;
    home.coord.bank = in_way / geom.arraysPerBank();
    home.coord.array = in_way % geom.arraysPerBank();
    nc_assert(home.coord.way < geom.computeWays(),
              "filter bank of '%s' spills past the compute ways",
              op.name.c_str());
    home.lane = abs_lane;
    home.row = byte_idx * 8; // 8-bit elements, LSB first
    return home;
}

std::vector<uint32_t>
WeightLayout::streamRanks() const
{
    const unsigned rs = op.r * op.s;
    const size_t n = static_cast<size_t>(op.m) * op.c * rs;
    nc_assert(n <= UINT32_MAX, "filter bank of '%s' has %zu bytes, "
              "more than a 32-bit stream position can index",
              op.name.c_str(), n);

    // Every home is one cell of the layer's arrays: global array
    // (pass-major, so later passes stream after earlier ones), then
    // word-line byte, then bit line. The cell index is the stream
    // sort key, so an element's rank among the occupied cells is its
    // stream position.
    const uint64_t row_bytes = geom.arrayRows / 8;
    const uint64_t compute_arrays = geom.computeArraysPerSlice();
    std::vector<uint32_t> rank(n);
    uint64_t max_cell = 0;
    size_t i = 0;
    for (unsigned m = 0; m < op.m; ++m)
        for (unsigned c = 0; c < op.c; ++c)
            for (unsigned k = 0; k < rs; ++k, ++i) {
                WeightHome h = homeOf(m, c, k);
                nc_assert(h.row % 8 == 0 && h.row < geom.arrayRows &&
                              h.lane < geom.arrayCols,
                          "'%s' element (%u,%u,%u) homed off the array "
                          "grid (row %u, lane %u)", op.name.c_str(), m,
                          c, k, h.row, h.lane);
                uint64_t flat =
                    (uint64_t(h.coord.way) * geom.banksPerWay +
                     h.coord.bank) *
                        geom.arraysPerBank() +
                    h.coord.array;
                uint64_t cell =
                    ((h.pass * compute_arrays + flat) * row_bytes +
                     h.row / 8) *
                        geom.arrayCols +
                    h.lane;
                nc_assert(cell <= UINT32_MAX,
                          "'%s' spans more cells than a 32-bit stream "
                          "key can index", op.name.c_str());
                rank[i] = static_cast<uint32_t>(cell);
                max_cell = std::max(max_cell, cell);
            }

    // Occupancy bitmap plus a running count of the cells before each
    // word turn each cell index into its rank in O(1). A second
    // element on an occupied cell would silently overwrite the first
    // in the image, so it dies instead.
    std::vector<uint64_t> occupied(max_cell / 64 + 1, 0);
    for (i = 0; i < n; ++i) {
        uint64_t bit = uint64_t(1) << (rank[i] % 64);
        uint64_t &word = occupied[rank[i] / 64];
        if (word & bit) {
            unsigned m = static_cast<unsigned>(i / (size_t(op.c) * rs));
            unsigned c = static_cast<unsigned>(i / rs % op.c);
            unsigned k = static_cast<unsigned>(i % rs);
            nc_panic("conv '%s': filter element (%u,%u,%u) shares its "
                     "home with another element", op.name.c_str(), m, c,
                     k);
        }
        word |= bit;
    }
    std::vector<uint32_t> before(occupied.size());
    uint32_t count = 0;
    for (size_t w = 0; w < occupied.size(); ++w) {
        before[w] = count;
        count += static_cast<uint32_t>(std::popcount(occupied[w]));
    }
    for (auto &r : rank) {
        uint64_t below = (uint64_t(1) << (r % 64)) - 1;
        r = before[r / 64] +
            static_cast<uint32_t>(std::popcount(occupied[r / 64] & below));
    }
    return rank;
}

std::vector<WeightLayout::Placed>
WeightLayout::placements() const
{
    std::vector<uint32_t> rank = streamRanks();
    std::vector<Placed> placed(rank.size());
    size_t i = 0;
    for (unsigned m = 0; m < op.m; ++m)
        for (unsigned c = 0; c < op.c; ++c)
            for (unsigned k = 0; k < op.r * op.s; ++k)
                placed[rank[i++]] = Placed{homeOf(m, c, k), m, c, k};
    return placed;
}

std::vector<WeightHome>
WeightLayout::streamingOrder() const
{
    std::vector<WeightHome> homes;
    auto placed = placements();
    homes.reserve(placed.size());
    for (const auto &p : placed)
        homes.push_back(p.home);
    return homes;
}

std::vector<uint8_t>
WeightLayout::dramImage(const dnn::QWeights &w) const
{
    nc_assert(w.m == op.m && w.c == op.c && w.r == op.r &&
                  w.s == op.s,
              "weight tensor does not match the op '%s'",
              op.name.c_str());
    // QWeights stores (m, c, r, s) row-major: the same element order
    // streamRanks() indexes.
    std::vector<uint32_t> rank = streamRanks();
    std::vector<uint8_t> image(rank.size());
    for (size_t i = 0; i < rank.size(); ++i)
        image[rank[i]] = w.data[i];
    return image;
}

} // namespace nc::mapping

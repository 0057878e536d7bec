/**
 * @file
 * Transposed weight placement (paper §IV-C): "filter weights are
 * preprocessed to a transpose format and laid out in DRAM such that
 * they map to correct bitlines and word-lines." WeightLayout assigns
 * every byte of a convolution's filter bank its home (array
 * coordinate, word line, bit line) consistent with the mapper's
 * Figure-10 layout — the order the preprocessed DRAM image follows.
 */

#ifndef NC_MAPPING_WEIGHT_LAYOUT_HH
#define NC_MAPPING_WEIGHT_LAYOUT_HH

#include <cstdint>
#include <vector>

#include "cache/compute_cache.hh"
#include "cache/geometry.hh"
#include "dnn/reference.hh"
#include "mapping/plan.hh"

namespace nc::mapping
{

using cache::ArrayCoord;
using cache::Geometry;

/** Home of one weight byte inside the compute cache. */
struct WeightHome
{
    ArrayCoord coord;  ///< which 8KB array
    unsigned lane = 0; ///< bit line
    unsigned row = 0;  ///< word line of the byte's LSB
    /**
     * Serial pass the byte belongs to: filter banks larger than one
     * slice's compute ways time-multiplex the arrays (§IV-B's serial
     * passes), and the DRAM image streams pass by pass. Zero for
     * every layer that fits in one pass.
     */
    unsigned pass = 0;

    bool operator==(const WeightHome &) const = default;
};

/**
 * Placement of a convolution's filter bank across the cache,
 * following the mapper's plan: channels walk bit lines (split
 * channels consecutive), filter bytes walk the word-line band,
 * filter batches (M's) walk lane groups then arrays, replicated
 * across ways/slices by broadcast (so only way-0/slice-0 homes are
 * enumerated — the broadcast copies are implicit).
 */
class WeightLayout
{
  public:
    WeightLayout(const dnn::ConvOp &op, const mapping::ConvPlan &plan,
                 const Geometry &geom);

    /**
     * Home of filter element (m, c, k) where k indexes the RxS
     * window in row-major order.
     */
    WeightHome homeOf(unsigned m, unsigned c, unsigned k) const;

    /** Word lines the filter band occupies per array. */
    unsigned filterRows() const { return plan.filterRows; }

    /**
     * The DRAM streaming order: every (m, c, k) element enumerated in
     * the order the transposed image must be laid out so a linear
     * DRAM burst fills word lines sequentially.
     */
    std::vector<WeightHome> streamingOrder() const;

    /** A filter element together with its placement. */
    struct Placed
    {
        WeightHome home;
        unsigned m = 0, c = 0, k = 0;
    };

    /**
     * Every element with its home, in streaming order. Dies naming the
     * layer when two elements share a home.
     */
    std::vector<Placed> placements() const;

    /**
     * The preprocessed DRAM image (paper §IV-C): the filter bank's
     * bytes in exactly the streaming order, ready to burst into the
     * arrays. @p w must match the op's (m, c, r, s).
     */
    std::vector<uint8_t> dramImage(const dnn::QWeights &w) const;

  private:
    /**
     * Stream position of every filter element, indexed like
     * QWeights::data ((m * C + c) * R * S + k). Linear time: the homes
     * are ranked by cell, not sorted. Dies naming the layer when two
     * elements share a home.
     */
    std::vector<uint32_t> streamRanks() const;

    dnn::ConvOp op;
    mapping::ConvPlan plan;
    Geometry geom;
};

} // namespace nc::mapping

#endif // NC_MAPPING_WEIGHT_LAYOUT_HH

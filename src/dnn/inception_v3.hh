/**
 * @file
 * The Inception v3 model (Szegedy et al., CVPR 2016) at branch-level
 * detail — the paper's evaluation workload (Table I, 94 conv
 * sub-layers across 20 stages).
 *
 * The graph follows the TF-slim reference implementation: stem convs
 * use VALID padding, in-block convs use SAME padding, and all stride-2
 * reductions are VALID, which is exactly the combination that
 * reproduces the per-stage convolution counts of Table I. Two entries
 * of the published table are arithmetically inconsistent with the
 * model structure (Table1Row's convsTypo / filterTypo below, which
 * bench/table1_layers flags): Mixed_6e's conv count repeats the
 * 6c/6d value although 6e uses 192-wide towers, and Mixed_6a's
 * filter size is far below the parameter count of its own
 * 384-filter reduction conv.
 */

#ifndef NC_DNN_INCEPTION_V3_HH
#define NC_DNN_INCEPTION_V3_HH

#include <vector>

#include "dnn/layers.hh"

namespace nc::dnn
{

/**
 * Build the full 20-stage Inception v3 network. The default 299x299
 * input reproduces Table I exactly. Other input sizes keep the whole
 * topology — every tower, channel width, padding mode, and the
 * global-average head (whose window follows the flowing feature-map
 * size) — while scaling the spatial extents, which is what makes a
 * full functional (bit-serial) run CI-affordable. The input must be
 * large enough that every VALID reduction still has a full window
 * (>= 75).
 */
Network inceptionV3(unsigned input_hw = 299);

/** One published row of Table I, for validation. */
struct Table1Row
{
    std::string name;
    unsigned h;        ///< input feature-map height
    unsigned e;        ///< output feature-map height
    uint64_t convs;    ///< "Conv" column
    double filterMiB;  ///< "Filter Size / MB" column
    double inputMiB;   ///< "Input Size / MB" column
    bool convsTypo = false;  ///< conv count inconsistent in the paper
    bool filterTypo = false; ///< filter size inconsistent in the paper
};

/** The published Table I. */
std::vector<Table1Row> paperTable1();

} // namespace nc::dnn

#endif // NC_DNN_INCEPTION_V3_HH

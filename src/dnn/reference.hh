/**
 * @file
 * Reference executors for the DNN primitives.
 *
 * These are straightforward, obviously-correct loops used as ground
 * truth: the bit-serial functional executor must match the quantized
 * reference exactly, and the quantized path must track the float path
 * within quantization error. They stand in for the paper's TensorFlow
 * trace-matching verification (§V); tests/core/test_backend_parity.cc
 * pins every functional backend to them.
 */

#ifndef NC_DNN_REFERENCE_HH
#define NC_DNN_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "dnn/layers.hh"
#include "dnn/tensor.hh"

namespace nc::dnn
{

/** MCRS filter bank (m outer, then c, r, s) of floats. */
struct Weights
{
    unsigned m = 0, c = 0, r = 0, s = 0;
    std::vector<float> data;

    Weights() = default;
    Weights(unsigned m_, unsigned c_, unsigned r_, unsigned s_)
        : m(m_), c(c_), r(r_), s(s_),
          data(static_cast<size_t>(m_) * c_ * r_ * s_, 0.0f)
    {
    }

    float &
    at(unsigned mi, unsigned ci, unsigned ri, unsigned si)
    {
        return data[((static_cast<size_t>(mi) * c + ci) * r + ri) * s +
                    si];
    }

    float
    at(unsigned mi, unsigned ci, unsigned ri, unsigned si) const
    {
        return data[((static_cast<size_t>(mi) * c + ci) * r + ri) * s +
                    si];
    }
};

/** uint8 filter bank with its quantization parameters. */
struct QWeights
{
    unsigned m = 0, c = 0, r = 0, s = 0;
    QuantParams qp;
    std::vector<uint8_t> data;

    QWeights() = default;
    QWeights(unsigned m_, unsigned c_, unsigned r_, unsigned s_,
             QuantParams qp_ = {})
        : m(m_), c(c_), r(r_), s(s_), qp(qp_),
          data(static_cast<size_t>(m_) * c_ * r_ * s_, 0)
    {
    }

    uint8_t &
    at(unsigned mi, unsigned ci, unsigned ri, unsigned si)
    {
        return data[((static_cast<size_t>(mi) * c + ci) * r + ri) * s +
                    si];
    }

    uint8_t
    at(unsigned mi, unsigned ci, unsigned ri, unsigned si) const
    {
        return data[((static_cast<size_t>(mi) * c + ci) * r + ri) * s +
                    si];
    }
};

/** @name Float reference ops */
/// @{
Tensor convFloat(const Tensor &in, const Weights &w, unsigned stride,
                 bool same_pad);
Tensor maxPoolFloat(const Tensor &in, unsigned r, unsigned s,
                    unsigned stride, bool same_pad);
Tensor avgPoolFloat(const Tensor &in, unsigned r, unsigned s,
                    unsigned stride, bool same_pad);
Tensor reluFloat(const Tensor &in);
/// @}

/**
 * Quantized convolution: uint8 input x uint8 weights with zero-point
 * offsets removed, accumulated in int32 — the arithmetic Neural Cache
 * performs in the arrays (acc = sum (in - zi) * (w - zw)). Output is
 * the raw int32 accumulator per (m, oh, ow); requantization is a
 * separate step so tests can compare accumulators bit-exactly.
 */
std::vector<int32_t> convQuant(const QTensor &in, const QWeights &w,
                               unsigned stride, bool same_pad,
                               unsigned &out_h, unsigned &out_w);

/**
 * Unsigned-only quantized convolution (no zero-point subtraction):
 * acc = sum in * w over the window. This is the exact operation the
 * bit-serial functional executor implements, so integration tests
 * compare against it bit for bit.
 */
std::vector<uint32_t> convQuantUnsigned(const QTensor &in,
                                        const QWeights &w,
                                        unsigned stride, bool same_pad,
                                        unsigned &out_h,
                                        unsigned &out_w);

/** Quantized max pooling (uint8 passes through unchanged). */
QTensor maxPoolQuant(const QTensor &in, unsigned r, unsigned s,
                     unsigned stride, bool same_pad);

/**
 * Quantized average pooling, VALID windows, mirroring the bit-serial
 * implementation exactly: window sum followed by a truncating (floor)
 * division by the window size — a shift when RxS is a power of two,
 * restoring division otherwise (paper §IV-D). Ground truth for
 * Executor::avgPool.
 */
QTensor avgPoolQuant(const QTensor &in, unsigned r, unsigned s,
                     unsigned stride);

/**
 * Quantized average pooling with optional TF SAME padding: partial
 * windows divide by the number of valid elements (padding excluded
 * from the average, as TensorFlow computes it), still truncating.
 */
QTensor avgPoolQuant(const QTensor &in, unsigned r, unsigned s,
                     unsigned stride, bool same_pad);

/**
 * Quantized residual merge (§IV-D fixed point): out = sat8(((a + b) *
 * mult) >> shift) per element, with compile-time calibrated scalars —
 * the oracle the bit-serial eltwise kernel is pinned to.
 */
std::vector<uint8_t> eltwiseAddQuant(const std::vector<uint8_t> &a,
                                     const std::vector<uint8_t> &b,
                                     uint8_t mult, unsigned shift);
QTensor eltwiseAddQuant(const QTensor &a, const QTensor &b,
                        uint8_t mult, unsigned shift);

} // namespace nc::dnn

#endif // NC_DNN_REFERENCE_HH

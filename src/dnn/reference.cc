#include "dnn/reference.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace nc::dnn
{

Tensor
convFloat(const Tensor &in, const Weights &w, unsigned stride,
          bool same_pad)
{
    nc_assert(in.channels() == w.c, "channel mismatch %u vs %u",
              in.channels(), w.c);
    unsigned oh = outDim(in.height(), w.r, stride, same_pad);
    unsigned ow = outDim(in.width(), w.s, stride, same_pad);
    unsigned ph = padBefore(in.height(), w.r, stride, same_pad);
    unsigned pw = padBefore(in.width(), w.s, stride, same_pad);

    Tensor out(w.m, oh, ow);
    for (unsigned mi = 0; mi < w.m; ++mi) {
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                float acc = 0.0f;
                for (unsigned ci = 0; ci < w.c; ++ci) {
                    for (unsigned ri = 0; ri < w.r; ++ri) {
                        for (unsigned si = 0; si < w.s; ++si) {
                            int iy = static_cast<int>(y * stride + ri) -
                                     static_cast<int>(ph);
                            int ix = static_cast<int>(x * stride + si) -
                                     static_cast<int>(pw);
                            if (iy < 0 || ix < 0 ||
                                iy >= static_cast<int>(in.height()) ||
                                ix >= static_cast<int>(in.width()))
                                continue;
                            acc += in.at(ci, iy, ix) *
                                   w.at(mi, ci, ri, si);
                        }
                    }
                }
                out.at(mi, y, x) = acc;
            }
        }
    }
    return out;
}

Tensor
maxPoolFloat(const Tensor &in, unsigned r, unsigned s, unsigned stride,
             bool same_pad)
{
    unsigned oh = outDim(in.height(), r, stride, same_pad);
    unsigned ow = outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    Tensor out(in.channels(), oh, ow);
    for (unsigned ci = 0; ci < in.channels(); ++ci) {
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                float best = -std::numeric_limits<float>::infinity();
                for (unsigned ri = 0; ri < r; ++ri) {
                    for (unsigned si = 0; si < s; ++si) {
                        int iy = static_cast<int>(y * stride + ri) -
                                 static_cast<int>(ph);
                        int ix = static_cast<int>(x * stride + si) -
                                 static_cast<int>(pw);
                        if (iy < 0 || ix < 0 ||
                            iy >= static_cast<int>(in.height()) ||
                            ix >= static_cast<int>(in.width()))
                            continue;
                        best = std::max(best, in.at(ci, iy, ix));
                    }
                }
                out.at(ci, y, x) = best;
            }
        }
    }
    return out;
}

Tensor
avgPoolFloat(const Tensor &in, unsigned r, unsigned s, unsigned stride,
             bool same_pad)
{
    unsigned oh = outDim(in.height(), r, stride, same_pad);
    unsigned ow = outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    Tensor out(in.channels(), oh, ow);
    for (unsigned ci = 0; ci < in.channels(); ++ci) {
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                float sum = 0.0f;
                unsigned n = 0;
                for (unsigned ri = 0; ri < r; ++ri) {
                    for (unsigned si = 0; si < s; ++si) {
                        int iy = static_cast<int>(y * stride + ri) -
                                 static_cast<int>(ph);
                        int ix = static_cast<int>(x * stride + si) -
                                 static_cast<int>(pw);
                        if (iy < 0 || ix < 0 ||
                            iy >= static_cast<int>(in.height()) ||
                            ix >= static_cast<int>(in.width()))
                            continue;
                        sum += in.at(ci, iy, ix);
                        ++n;
                    }
                }
                out.at(ci, y, x) = n ? sum / static_cast<float>(n) : 0;
            }
        }
    }
    return out;
}

Tensor
reluFloat(const Tensor &in)
{
    Tensor out(in.channels(), in.height(), in.width());
    for (size_t i = 0; i < in.size(); ++i)
        out.data()[i] = std::max(0.0f, in.data()[i]);
    return out;
}

std::vector<int32_t>
convQuant(const QTensor &in, const QWeights &w, unsigned stride,
          bool same_pad, unsigned &out_h, unsigned &out_w)
{
    nc_assert(in.channels() == w.c, "channel mismatch %u vs %u",
              in.channels(), w.c);
    out_h = outDim(in.height(), w.r, stride, same_pad);
    out_w = outDim(in.width(), w.s, stride, same_pad);
    unsigned ph = padBefore(in.height(), w.r, stride, same_pad);
    unsigned pw = padBefore(in.width(), w.s, stride, same_pad);
    int32_t zi = in.params().zeroPoint();
    int32_t zw = w.qp.zeroPoint();

    std::vector<int32_t> out(
        static_cast<size_t>(w.m) * out_h * out_w, 0);
    for (unsigned mi = 0; mi < w.m; ++mi) {
        for (unsigned y = 0; y < out_h; ++y) {
            for (unsigned x = 0; x < out_w; ++x) {
                int32_t acc = 0;
                for (unsigned ci = 0; ci < w.c; ++ci) {
                    for (unsigned ri = 0; ri < w.r; ++ri) {
                        for (unsigned si = 0; si < w.s; ++si) {
                            int iy = static_cast<int>(y * stride + ri) -
                                     static_cast<int>(ph);
                            int ix = static_cast<int>(x * stride + si) -
                                     static_cast<int>(pw);
                            // Zero padding quantizes to the zero
                            // point, whose offset-removed value is 0.
                            int32_t iv =
                                (iy < 0 || ix < 0 ||
                                 iy >= static_cast<int>(in.height()) ||
                                 ix >= static_cast<int>(in.width()))
                                    ? zi
                                    : in.at(ci, iy, ix);
                            int32_t wv = w.at(mi, ci, ri, si);
                            acc += (iv - zi) * (wv - zw);
                        }
                    }
                }
                out[(static_cast<size_t>(mi) * out_h + y) * out_w + x] =
                    acc;
            }
        }
    }
    return out;
}

std::vector<uint32_t>
convQuantUnsigned(const QTensor &in, const QWeights &w, unsigned stride,
                  bool same_pad, unsigned &out_h, unsigned &out_w)
{
    nc_assert(in.channels() == w.c, "channel mismatch %u vs %u",
              in.channels(), w.c);
    out_h = outDim(in.height(), w.r, stride, same_pad);
    out_w = outDim(in.width(), w.s, stride, same_pad);
    unsigned ph = padBefore(in.height(), w.r, stride, same_pad);
    unsigned pw = padBefore(in.width(), w.s, stride, same_pad);

    std::vector<uint32_t> out(
        static_cast<size_t>(w.m) * out_h * out_w, 0);
    for (unsigned mi = 0; mi < w.m; ++mi) {
        for (unsigned y = 0; y < out_h; ++y) {
            for (unsigned x = 0; x < out_w; ++x) {
                uint32_t acc = 0;
                for (unsigned ci = 0; ci < w.c; ++ci) {
                    for (unsigned ri = 0; ri < w.r; ++ri) {
                        for (unsigned si = 0; si < w.s; ++si) {
                            int iy = static_cast<int>(y * stride + ri) -
                                     static_cast<int>(ph);
                            int ix = static_cast<int>(x * stride + si) -
                                     static_cast<int>(pw);
                            if (iy < 0 || ix < 0 ||
                                iy >= static_cast<int>(in.height()) ||
                                ix >= static_cast<int>(in.width()))
                                continue;
                            acc += uint32_t(in.at(ci, iy, ix)) *
                                   uint32_t(w.at(mi, ci, ri, si));
                        }
                    }
                }
                out[(static_cast<size_t>(mi) * out_h + y) * out_w + x] =
                    acc;
            }
        }
    }
    return out;
}

QTensor
maxPoolQuant(const QTensor &in, unsigned r, unsigned s, unsigned stride,
             bool same_pad)
{
    unsigned oh = outDim(in.height(), r, stride, same_pad);
    unsigned ow = outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    QTensor out(in.channels(), oh, ow, in.params());
    for (unsigned ci = 0; ci < in.channels(); ++ci) {
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                uint8_t best = 0;
                for (unsigned ri = 0; ri < r; ++ri) {
                    for (unsigned si = 0; si < s; ++si) {
                        int iy = static_cast<int>(y * stride + ri) -
                                 static_cast<int>(ph);
                        int ix = static_cast<int>(x * stride + si) -
                                 static_cast<int>(pw);
                        if (iy < 0 || ix < 0 ||
                            iy >= static_cast<int>(in.height()) ||
                            ix >= static_cast<int>(in.width()))
                            continue;
                        best = std::max(best, in.at(ci, iy, ix));
                    }
                }
                out.at(ci, y, x) = best;
            }
        }
    }
    return out;
}

QTensor
avgPoolQuant(const QTensor &in, unsigned r, unsigned s, unsigned stride)
{
    return avgPoolQuant(in, r, s, stride, false);
}

QTensor
avgPoolQuant(const QTensor &in, unsigned r, unsigned s, unsigned stride,
             bool same_pad)
{
    unsigned oh = outDim(in.height(), r, stride, same_pad);
    unsigned ow = outDim(in.width(), s, stride, same_pad);
    unsigned ph = padBefore(in.height(), r, stride, same_pad);
    unsigned pw = padBefore(in.width(), s, stride, same_pad);

    QTensor out(in.channels(), oh, ow, in.params());
    for (unsigned ci = 0; ci < in.channels(); ++ci) {
        for (unsigned y = 0; y < oh; ++y) {
            for (unsigned x = 0; x < ow; ++x) {
                uint32_t sum = 0;
                unsigned count = 0;
                for (unsigned ri = 0; ri < r; ++ri) {
                    for (unsigned si = 0; si < s; ++si) {
                        int iy = static_cast<int>(y * stride + ri) -
                                 static_cast<int>(ph);
                        int ix = static_cast<int>(x * stride + si) -
                                 static_cast<int>(pw);
                        if (iy < 0 || ix < 0 ||
                            iy >= static_cast<int>(in.height()) ||
                            ix >= static_cast<int>(in.width()))
                            continue;
                        sum += in.at(ci, iy, ix);
                        ++count;
                    }
                }
                // Truncating division by the valid-element count (TF
                // SAME averages exclude padding), as the in-array
                // shift/divide sequence produces (read back modulo
                // 256).
                out.at(ci, y, x) =
                    static_cast<uint8_t>((sum / count) & 0xff);
            }
        }
    }
    return out;
}

std::vector<uint8_t>
requantQuant(const std::vector<uint32_t> &acc, uint8_t mult,
             unsigned shift)
{
    // Integer-exact mirror of the in-array sequence: multiply,
    // truncating shift, saturate to 8 bits.
    std::vector<uint8_t> out(acc.size());
    for (size_t i = 0; i < acc.size(); ++i) {
        uint64_t t = (static_cast<uint64_t>(acc[i]) * mult) >> shift;
        out[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }
    return out;
}

std::vector<uint8_t>
eltwiseAddQuant(const std::vector<uint8_t> &a,
                const std::vector<uint8_t> &b, uint8_t mult,
                unsigned shift)
{
    nc_assert(a.size() == b.size(),
              "eltwise operands differ: %zu vs %zu elements", a.size(),
              b.size());
    std::vector<uint8_t> out(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        uint64_t t = ((static_cast<uint64_t>(a[i]) + b[i]) * mult) >>
                     shift;
        out[i] = static_cast<uint8_t>(t > 0xff ? 0xff : t);
    }
    return out;
}

QTensor
eltwiseAddQuant(const QTensor &a, const QTensor &b, uint8_t mult,
                unsigned shift)
{
    nc_assert(a.channels() == b.channels() &&
                  a.height() == b.height() && a.width() == b.width(),
              "eltwise operands differ: %ux%ux%u vs %ux%ux%u",
              a.channels(), a.height(), a.width(), b.channels(),
              b.height(), b.width());
    QTensor out(a.channels(), a.height(), a.width(), a.params());
    out.data() = eltwiseAddQuant(a.data(), b.data(), mult, shift);
    return out;
}

} // namespace nc::dnn

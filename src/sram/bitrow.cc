#include "sram/bitrow.hh"

#include <bit>

#include "common/logging.hh"

namespace nc::sram
{

BitRow::BitRow(unsigned width_, bool fill_)
    : nbits(width_), words((width_ + 63) / 64, fill_ ? ~uint64_t(0) : 0)
{
    maskTail();
}

void
BitRow::maskTail()
{
    if (!words.empty())
        words.back() &= tailMask();
}

void
BitRow::fill(bool v)
{
    for (auto &w : words)
        w = v ? ~uint64_t(0) : 0;
    maskTail();
}

unsigned
BitRow::popcount() const
{
    unsigned n = 0;
    for (auto w : words)
        n += static_cast<unsigned>(std::popcount(w));
    return n;
}

BitRow
BitRow::operator&(const BitRow &o) const
{
    nc_assert(nbits == o.nbits, "width mismatch %u vs %u", nbits, o.nbits);
    BitRow r(nbits);
    for (size_t i = 0; i < words.size(); ++i)
        r.words[i] = words[i] & o.words[i];
    return r;
}

BitRow
BitRow::operator|(const BitRow &o) const
{
    nc_assert(nbits == o.nbits, "width mismatch %u vs %u", nbits, o.nbits);
    BitRow r(nbits);
    for (size_t i = 0; i < words.size(); ++i)
        r.words[i] = words[i] | o.words[i];
    return r;
}

BitRow
BitRow::operator^(const BitRow &o) const
{
    nc_assert(nbits == o.nbits, "width mismatch %u vs %u", nbits, o.nbits);
    BitRow r(nbits);
    for (size_t i = 0; i < words.size(); ++i)
        r.words[i] = words[i] ^ o.words[i];
    return r;
}

BitRow
BitRow::operator~() const
{
    BitRow r(nbits);
    for (size_t i = 0; i < words.size(); ++i)
        r.words[i] = ~words[i];
    r.maskTail();
    return r;
}

bool
BitRow::operator==(const BitRow &o) const
{
    return nbits == o.nbits && words == o.words;
}

BitRow
BitRow::shiftedDown(unsigned shift) const
{
    BitRow r(nbits);
    r.assignShiftedDown(*this, shift);
    return r;
}

void
BitRow::assignShiftedDown(const BitRow &src, unsigned shift)
{
    nc_assert(nbits == src.nbits, "width mismatch %u vs %u", nbits,
              src.nbits);
    size_t nw = words.size();
    if (shift >= nbits) {
        for (auto &w : words)
            w = 0;
        return;
    }
    size_t ws = shift / 64;
    unsigned bs = shift % 64;
    size_t n = nw - ws; // words that receive source bits (>= 1)
    // Forward iteration only reads source words at index >= the one
    // being written, so src may alias *this. The last receiving word
    // is peeled off so the main loop has no bounds test (it
    // vectorizes, which wide group rows rely on).
    if (bs == 0) {
        for (size_t i = 0; i < n; ++i)
            words[i] = src.words[i + ws];
    } else {
        for (size_t i = 0; i + 1 < n; ++i)
            words[i] = (src.words[i + ws] >> bs) |
                       (src.words[i + ws + 1] << (64 - bs));
        words[n - 1] = src.words[nw - 1] >> bs;
    }
    for (size_t i = n; i < nw; ++i)
        words[i] = 0;
    maskTail();
}

void
BitRow::mergeFrom(const BitRow &src, const BitRow &mask)
{
    nc_assert(nbits == src.nbits && nbits == mask.nbits,
              "width mismatch in mergeFrom");
    for (size_t i = 0; i < words.size(); ++i) {
        words[i] = (words[i] & ~mask.words[i]) |
                   (src.words[i] & mask.words[i]);
    }
}

} // namespace nc::sram

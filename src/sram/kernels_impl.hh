/**
 * @file
 * The width-templated kernel bodies behind sram/kernels.hh.
 *
 * Included only by the per-tier translation units (kernels_scalar.cc,
 * kernels_avx2.cc, kernels_avx512.cc), each compiled with its own -m
 * flags; the backends self-gate on the compiler's feature macros so a
 * TU built without the flags still compiles (to a stub — see the
 * nullptr tables in those files).
 *
 * A backend describes one register width: vector type V, step W in
 * 64-bit words, and the handful of lane-wise primitives the passes
 * need. Passes are templated over <backend, op, predication>, keep
 * carry and predicate lanes in registers across each chunk, and
 * recurse into the backend's Narrower sibling for remainder words,
 * so a 512-bit pass over a 6-word row runs one 256-bit chunk and two
 * scalar words rather than six scalar words.
 *
 * All memory access goes through std::memcpy-based load/store (the
 * compilers lower these to plain/unaligned vector moves), never
 * through casted pointers, so alignment and strict-aliasing behavior
 * is defined at every tier — see ISSUE 9's UBSan requirement.
 */

#ifndef NC_SRAM_KERNELS_IMPL_HH
#define NC_SRAM_KERNELS_IMPL_HH

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "sram/kernels.hh"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace nc::sram::kern
{

// Everything here has internal linkage, on purpose: the same
// templates instantiate differently per TU (Avx2B's ternary-logic
// primitives depend on whether the including TU was built with
// AVX-512VL), so letting the instantiations share COMDAT symbols
// would hand the linker a choice between a VL and a non-VL body for
// the avx2 tier — and the wrong pick SIGILLs on a non-VL host. One
// private copy per tier TU keeps each dispatch table self-consistent
// with the flags it was compiled under.
namespace
{

/** Portable backend: one 64-bit word (64 lanes) per step. */
struct ScalarB
{
    using V = uint64_t;
    using Narrower = void; ///< terminates the remainder recursion
    static constexpr size_t W = 1;

    static V
    load(const uint64_t *p)
    {
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }
    static void
    store(uint64_t *p, V v)
    {
        std::memcpy(p, &v, sizeof v);
    }
    static V splat(uint64_t x) { return x; }
    static V and_(V a, V b) { return a & b; }
    static V or_(V a, V b) { return a | b; }
    static V xor_(V a, V b) { return a ^ b; }
    /** ~a & b (operand order matches the VPANDN instruction). */
    static V andnot(V a, V b) { return ~a & b; }
    static V not_(V a) { return ~a; }
    static V shr(V v, unsigned n) { return v >> n; }
    static V shl(V v, unsigned n) { return v << n; }
    /** Shifts by a count held in a register (every word the same). */
    static V shrv(V v, V n) { return v >> n; }
    static V shlv(V v, V n) { return v << n; }
    /** a ^ b ^ c — the full-adder sum. */
    static V sum3(V a, V b, V c) { return a ^ b ^ c; }
    /** majority(a, b, c) — the full-adder carry-out. */
    static V maj3(V a, V b, V c) { return (a & b) | ((a ^ b) & c); }
    /** Lane blend: t ? v : d. */
    static V blend(V t, V v, V d) { return (v & t) | (d & ~t); }
    /** Chunk mask whose highest word is the row's tail mask. */
    static V lastMask(uint64_t tm) { return tm; }

    /**
     * Word permutation with zeroing: word k of permute(v, p) takes
     * word src[k] of v, or 0 where src[k] < 0 (makePerm's source
     * list has W entries).
     */
    using Perm = bool;
    static Perm makePerm(const int *src) { return src[0] >= 0; }
    static V permute(V v, Perm p) { return p ? v : 0; }

    /** Bit b of each of 64 packed bytes, as one plane word. */
    static uint64_t
    packPlane(const uint8_t bytes[64], unsigned b)
    {
        uint64_t w = 0;
        for (unsigned i = 0; i < 64; ++i)
            w |= uint64_t((bytes[i] >> b) & 1u) << i;
        return w;
    }
};

#if defined(__AVX2__)

/** AVX2 backend: four words (256 lanes) per step. */
struct Avx2B
{
    using V = __m256i;
    using Narrower = ScalarB;
    static constexpr size_t W = 4;

    static V
    load(const uint64_t *p)
    {
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }
    static void
    store(uint64_t *p, V v)
    {
        std::memcpy(p, &v, sizeof v);
    }
    static V
    splat(uint64_t x)
    {
        return _mm256_set1_epi64x(static_cast<long long>(x));
    }
    static V and_(V a, V b) { return _mm256_and_si256(a, b); }
    static V or_(V a, V b) { return _mm256_or_si256(a, b); }
    static V xor_(V a, V b) { return _mm256_xor_si256(a, b); }
    static V andnot(V a, V b) { return _mm256_andnot_si256(a, b); }
    static V not_(V a) { return _mm256_xor_si256(a, splat(~uint64_t(0))); }
    static V
    shr(V v, unsigned n)
    {
        return _mm256_srl_epi64(v, _mm_cvtsi32_si128(int(n)));
    }
    static V
    shl(V v, unsigned n)
    {
        return _mm256_sll_epi64(v, _mm_cvtsi32_si128(int(n)));
    }
    static V shrv(V v, V n) { return _mm256_srlv_epi64(v, n); }
    static V shlv(V v, V n) { return _mm256_sllv_epi64(v, n); }
#if defined(__AVX512VL__)
    // With AVX-512VL each 3-input boolean collapses to one VPTERNLOGQ
    // (imm = truth table over A:0xF0 B:0xCC C:0xAA), shortening the
    // carry chain of the dominant single-chunk opAdd geometry.
    static V
    sum3(V a, V b, V c)
    {
        return _mm256_ternarylogic_epi64(a, b, c, 0x96);
    }
    static V
    maj3(V a, V b, V c)
    {
        return _mm256_ternarylogic_epi64(a, b, c, 0xE8);
    }
    static V
    blend(V t, V v, V d)
    {
        return _mm256_ternarylogic_epi64(t, v, d, 0xCA);
    }
#else
    static V sum3(V a, V b, V c) { return xor_(xor_(a, b), c); }
    static V
    maj3(V a, V b, V c)
    {
        return or_(and_(a, b), and_(xor_(a, b), c));
    }
    static V blend(V t, V v, V d) { return or_(and_(v, t), andnot(t, d)); }
#endif
    static V
    lastMask(uint64_t tm)
    {
        return _mm256_set_epi64x(static_cast<long long>(tm), -1, -1,
                                 -1);
    }

    struct Perm
    {
        V idx;  ///< dword indices (VPERMD has no qword form)
        V keep; ///< all-ones words where src[k] >= 0
    };
    static Perm
    makePerm(const int *src)
    {
        int32_t idx[8];
        int64_t keep[4];
        for (unsigned k = 0; k < 4; ++k) {
            const int32_t w = src[k] < 0 ? 0 : src[k];
            idx[2 * k] = 2 * w;
            idx[2 * k + 1] = 2 * w + 1;
            keep[k] = src[k] < 0 ? 0 : -1;
        }
        Perm p;
        std::memcpy(&p.idx, idx, sizeof idx);
        std::memcpy(&p.keep, keep, sizeof keep);
        return p;
    }
    static V
    permute(V v, const Perm &p)
    {
        return and_(_mm256_permutevar8x32_epi32(v, p.idx), p.keep);
    }

    static uint64_t
    packPlane(const uint8_t bytes[64], unsigned b)
    {
        // Left-shift each byte so bit b lands in bit 7, then let
        // VPMOVMSKB collect the sign bits. The 16-bit shift cannot
        // contaminate the read bit: for shifts <= 7, each byte's bit
        // 7 still comes from within that byte.
        V v0, v1;
        std::memcpy(&v0, bytes, 32);
        std::memcpy(&v1, bytes + 32, 32);
        __m128i cnt = _mm_cvtsi32_si128(int(7 - b));
        auto lo = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_sll_epi16(v0, cnt)));
        auto hi = static_cast<uint32_t>(
            _mm256_movemask_epi8(_mm256_sll_epi16(v1, cnt)));
        return uint64_t(lo) | (uint64_t(hi) << 32);
    }
};

#endif // __AVX2__

#if defined(__AVX512F__) && defined(__AVX512BW__)

/** AVX-512 backend: eight words (512 lanes) per step. */
struct Avx512B
{
    using V = __m512i;
    using Narrower = Avx2B; ///< -mavx512f implies AVX2 on GCC/Clang
    static constexpr size_t W = 8;

    static V
    load(const uint64_t *p)
    {
        V v;
        std::memcpy(&v, p, sizeof v);
        return v;
    }
    static void
    store(uint64_t *p, V v)
    {
        std::memcpy(p, &v, sizeof v);
    }
    static V
    splat(uint64_t x)
    {
        return _mm512_set1_epi64(static_cast<long long>(x));
    }
    static V and_(V a, V b) { return _mm512_and_si512(a, b); }
    static V or_(V a, V b) { return _mm512_or_si512(a, b); }
    static V xor_(V a, V b) { return _mm512_xor_si512(a, b); }
    static V andnot(V a, V b) { return _mm512_andnot_si512(a, b); }
    static V not_(V a) { return _mm512_xor_si512(a, splat(~uint64_t(0))); }
    static V
    shr(V v, unsigned n)
    {
        return _mm512_srl_epi64(v, _mm_cvtsi32_si128(int(n)));
    }
    static V
    shl(V v, unsigned n)
    {
        return _mm512_sll_epi64(v, _mm_cvtsi32_si128(int(n)));
    }
    static V shrv(V v, V n) { return _mm512_srlv_epi64(v, n); }
    static V shlv(V v, V n) { return _mm512_sllv_epi64(v, n); }
    static V
    sum3(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, 0x96);
    }
    static V
    maj3(V a, V b, V c)
    {
        return _mm512_ternarylogic_epi64(a, b, c, 0xE8);
    }
    static V
    blend(V t, V v, V d)
    {
        return _mm512_ternarylogic_epi64(t, v, d, 0xCA);
    }
    static V
    lastMask(uint64_t tm)
    {
        return _mm512_set_epi64(static_cast<long long>(tm), -1, -1,
                                -1, -1, -1, -1, -1);
    }

    struct Perm
    {
        V idx;
        __mmask8 keep; ///< words the masked permute does not zero
    };
    static Perm
    makePerm(const int *src)
    {
        int64_t idx[8];
        unsigned keep = 0;
        for (unsigned k = 0; k < 8; ++k) {
            idx[k] = src[k] < 0 ? 0 : src[k];
            keep |= src[k] < 0 ? 0u : 1u << k;
        }
        Perm p;
        std::memcpy(&p.idx, idx, sizeof idx);
        p.keep = static_cast<__mmask8>(keep);
        return p;
    }
    static V
    permute(V v, const Perm &p)
    {
        return _mm512_maskz_permutexvar_epi64(p.keep, p.idx, v);
    }

    static uint64_t
    packPlane(const uint8_t bytes[64], unsigned b)
    {
        // One masked sign-bit extraction for the whole block; the
        // VPMOVB2M byte mask is why this tier requires AVX512BW.
        V v;
        std::memcpy(&v, bytes, 64);
        __m128i cnt = _mm_cvtsi32_si128(int(7 - b));
        return static_cast<uint64_t>(
            _mm512_movepi8_mask(_mm512_sll_epi16(v, cnt)));
    }
};

#endif // __AVX512F__ && __AVX512BW__

/**
 * Predicated commit of @p v into the destination chunk: lanes where
 * the tag holds 1 take v, others keep d.
 */
template <class B>
inline typename B::V
predMerge(typename B::V v, typename B::V tv, typename B::V dv)
{
    return B::blend(tv, v, dv);
}

/** All-ones tail masks are the norm (width % 64 == 0): skip them. */
inline bool
maskedTail(uint64_t tm)
{
    return tm != ~uint64_t(0);
}

template <class B, bool PRED>
void
addPass(const uint64_t *a, const uint64_t *b, uint64_t *d, uint64_t *c,
        const uint64_t *t, size_t nw, uint64_t tm)
{
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        // All operand chunks (dst included when predicated) load
        // before either store, and chunks advance forward, so dst
        // may alias ra or rb (in-place accumulation).
        auto av = B::load(a + i);
        auto bv = B::load(b + i);
        auto cv = B::load(c + i);
        auto sum = B::sum3(av, bv, cv);
        auto cout = B::maj3(av, bv, cv);
        if (maskedTail(tm) && i + B::W == nw) {
            auto lm = B::lastMask(tm);
            sum = B::and_(sum, lm);
            cout = B::and_(cout, lm);
        }
        if constexpr (PRED)
            sum = predMerge<B>(sum, B::load(t + i), B::load(d + i));
        B::store(d + i, sum);
        B::store(c + i, cout);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            addPass<typename B::Narrower, PRED>(a + i, b + i, d + i,
                                                c + i, t + i, nw - i,
                                                tm);
    }
}

template <class B, bool INV, bool PRED>
void
copyPass(const uint64_t *s, uint64_t *d, const uint64_t *t, size_t nw,
         uint64_t tm)
{
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto v = B::load(s + i);
        if constexpr (INV)
            v = B::not_(v);
        if (maskedTail(tm) && i + B::W == nw)
            v = B::and_(v, B::lastMask(tm));
        if constexpr (PRED)
            v = predMerge<B>(v, B::load(t + i), B::load(d + i));
        B::store(d + i, v);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            copyPass<typename B::Narrower, INV, PRED>(
                s + i, d + i, t + i, nw - i, tm);
    }
}

template <class B, bool PRED>
void
immPass(uint64_t v, uint64_t *d, const uint64_t *t, size_t nw,
        uint64_t tm)
{
    auto vv = B::splat(v);
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto w = vv;
        if (maskedTail(tm) && i + B::W == nw)
            w = B::and_(w, B::lastMask(tm));
        if constexpr (PRED)
            w = predMerge<B>(w, B::load(t + i), B::load(d + i));
        B::store(d + i, w);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            immPass<typename B::Narrower, PRED>(v, d + i, t + i,
                                                nw - i, tm);
    }
}

template <class B, bool PRED>
void
latchStorePass(const uint64_t *s, uint64_t *d, const uint64_t *t,
               size_t nw)
{
    // The source is a latch row whose tail lanes are already zero:
    // no mask needed at any width.
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto v = B::load(s + i);
        if constexpr (PRED)
            v = predMerge<B>(v, B::load(t + i), B::load(d + i));
        B::store(d + i, v);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            latchStorePass<typename B::Narrower, PRED>(s + i, d + i,
                                                       t + i, nw - i);
    }
}

/** Tag folds: both operands already honour the zero-tail invariant. */
template <class B, TagFold OP>
void
tagFoldPass(uint64_t *t, const uint64_t *s, size_t nw)
{
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto tv = B::load(t + i);
        auto sv = B::load(s + i);
        typename B::V v;
        if constexpr (OP == TagFold::And)
            v = B::and_(tv, sv);
        else if constexpr (OP == TagFold::AndInv)
            v = B::andnot(sv, tv); // t & ~s
        else
            v = B::or_(tv, sv);
        B::store(t + i, v);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            tagFoldPass<typename B::Narrower, OP>(t + i, s + i,
                                                  nw - i);
    }
}

template <class B>
void
tagAndXnorPass(uint64_t *t, const uint64_t *a, const uint64_t *b,
               size_t nw)
{
    // t &= ~(a ^ b): the xor's tail is zero (both inputs masked), so
    // its complement's tail ones vanish against t's zero tail.
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto x = B::xor_(B::load(a + i), B::load(b + i));
        B::store(t + i, B::andnot(x, B::load(t + i)));
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            tagAndXnorPass<typename B::Narrower>(t + i, a + i, b + i,
                                                 nw - i);
    }
}

template <class B, bool INV>
void
loadLatchPass(uint64_t *d, const uint64_t *s, size_t nw, uint64_t tm)
{
    size_t i = 0;
    for (; i + B::W <= nw; i += B::W) {
        auto v = B::load(s + i);
        if constexpr (INV)
            v = B::not_(v); // sets tail lanes: mask below
        if (maskedTail(tm) && i + B::W == nw)
            v = B::and_(v, B::lastMask(tm));
        B::store(d + i, v);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            loadLatchPass<typename B::Narrower, INV>(d + i, s + i,
                                                     nw - i, tm);
    }
}

/**
 * One 64x64 transpose stage schedule (Hacker's Delight fig. 7-6):
 * butterfly j with mask m, j halving from 32 to 1.
 */
constexpr unsigned kStageJ[6] = {32, 16, 8, 4, 2, 1};
constexpr uint64_t kStageMask[6] = {
    0x00000000FFFFFFFFULL, 0x0000FFFF0000FFFFULL,
    0x00FF00FF00FF00FFULL, 0x0F0F0F0F0F0F0F0FULL,
    0x3333333333333333ULL, 0x5555555555555555ULL,
};

template <class B>
inline void
transposeBlock(uint64_t *a)
{
    for (unsigned s = 0; s < 6; ++s) {
        const unsigned j = kStageJ[s];
        const uint64_t m = kStageMask[s];
        if constexpr (B::W > 1) {
            // Stages whose butterfly span covers whole chunks run
            // vectorized: within each 2j-aligned pair of j-word
            // halves, the k indices are contiguous.
            if (j >= B::W) {
                auto mv = B::splat(m);
                for (unsigned base = 0; base < 64; base += 2 * j)
                    for (unsigned k = base; k < base + j; k += B::W) {
                        auto lo = B::load(a + k);
                        auto hi = B::load(a + k + j);
                        auto t =
                            B::and_(B::xor_(B::shr(lo, j), hi), mv);
                        B::store(a + k + j, B::xor_(hi, t));
                        B::store(a + k, B::xor_(lo, B::shl(t, j)));
                    }
                continue;
            }
        }
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            uint64_t t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
        }
    }
}

template <class B>
void
transposeBlocksPass(uint64_t *blocks, size_t nblocks)
{
    for (size_t blk = 0; blk < nblocks; ++blk)
        transposeBlock<B>(blocks + blk * 64);
}

template <class B>
void
packPlanesPass(const uint64_t *vals, size_t nvals, unsigned bits,
               uint64_t *planes, size_t nblocks)
{
    for (size_t blk = 0; blk < nblocks; ++blk) {
        // Narrow the block's 64 elements to bytes once, then peel
        // one plane word per bit.
        alignas(64) uint8_t bytes[64];
        const size_t lane0 = blk * 64;
        const size_t n =
            nvals > lane0 ? (nvals - lane0 < 64 ? nvals - lane0 : 64)
                          : 0;
        for (size_t i = 0; i < n; ++i)
            bytes[i] = static_cast<uint8_t>(vals[lane0 + i]);
        if (n < 64)
            std::memset(bytes + n, 0, 64 - n);
        for (unsigned b = 0; b < bits; ++b)
            planes[b * nblocks + blk] = B::packPlane(bytes, b);
    }
}

/** @name Fused macro-op passes
 *
 * Each pass runs a whole bitserial macro-op one chunk of B::W words
 * at a time: it loads the chunk's operand words once, replays every
 * micro-op of the ALU's expansion on registers (carry and tag
 * latches included) and stores each row the expansion writes once.
 * Lanes interact only through the reduction's in-member shift, and
 * a chunk holds whole members, so chunk order is free. No operation
 * used here turns an all-zero lane into a one, so the zero tail of
 * the inputs carries to every output without masking.
 */
/// @{

/**
 * f(0), ..., f(n - 1). A compile-time count N (= n) unrolls the loop
 * fully, so arrays indexed by the loop variable stay in registers;
 * N = 0 runs a plain loop over the runtime @p n.
 */
template <unsigned N, class F>
inline void
repeat(unsigned n, F &&f)
{
    if constexpr (N != 0) {
#pragma GCC unroll 64
        for (unsigned k = 0; k < N; ++k)
            f(k);
    } else {
        for (unsigned k = 0; k < n; ++k)
            f(k);
    }
}

/**
 * bitserial::multiply (acc untouched) or macScratch (MAC) on words
 * [i, nw). M, N, ACC fix the widths at compile time, unrolling the
 * multiplier-bit and accumulate loops; 0 reads them from @p x.
 */
template <class B, unsigned M, unsigned N, unsigned ACC, bool MAC>
void
mulPass(const MulRows &x, size_t i, size_t nw)
{
    using V = typename B::V;
    const unsigned m = M ? M : x.abits;
    const unsigned n = N ? N : x.bbits;
    const unsigned w = ACC ? ACC : x.accBits;
    const V zero = B::splat(0);
    for (; i + B::W <= nw; i += B::W) {
        V av[M ? M : kMaxPassRows];
        for (unsigned j = 0; j < m; ++j)
            av[j] = B::load(x.a[j] + i);
        // The §III walk: prod <= 0; per multiplier bit, tag <= b[bi],
        // carry <= 0, m predicated full adds of a into prod[bi..]
        // (the carry updates in every lane, tagged or not), then the
        // carry lands in prod[bi + m], still 0, where the tag is set.
        V p[M && N ? M + N : kMaxPassRows];
        for (unsigned k = 0; k < m + n; ++k)
            p[k] = zero;
        V c = zero;
        V t = zero;
        repeat<N>(n, [&](unsigned bi) {
            t = B::load(x.b[bi] + i);
            c = zero;
            for (unsigned j = 0; j < m; ++j) {
                const V pj = p[bi + j];
                p[bi + j] = B::blend(t, B::sum3(av[j], pj, c), pj);
                c = B::maj3(av[j], pj, c);
            }
            p[bi + m] = B::and_(t, c);
        });
        for (unsigned k = 0; k < m + n; ++k)
            B::store(x.prod[k] + i, p[k]);
        if constexpr (MAC) {
            // acc <= prod + acc: unpredicated, carry from 0, the rows
            // above the product padded with the zero row as stored.
            const V z = w > m + n ? B::load(x.zero + i) : zero;
            c = zero;
            repeat<ACC>(w, [&](unsigned j) {
                const V u = j < m + n ? p[j] : z;
                const V v = B::load(x.acc[j] + i);
                B::store(x.acc[j] + i, B::sum3(u, v, c));
                c = B::maj3(u, v, c);
            });
        }
        B::store(x.carry + i, c);
        B::store(x.tag + i, t);
    }
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (i < nw)
            mulPass<typename B::Narrower, M, N, ACC, MAC>(x, i, nw);
    }
}

/**
 * opLaneShift on one register of whole m-word members: lane l takes
 * lane l + shift when both lie in one member, else 0. Word k is a
 * funnel shift of member words k + q and k + q + 1 (q = shift / 64),
 * each permuted into place with words past the member zeroed.
 */
template <class B>
struct LaneShift
{
    typename B::Perm lo, hi;
    typename B::V r, rh; ///< lo >> r | hi << rh, counts splatted
    bool loInPlace = false; ///< lo is v itself (shift < 64)

    LaneShift() = default;
    LaneShift(unsigned shift, size_t m)
    {
        const size_t q = shift / 64;
        const unsigned rs = shift % 64;
        int los[B::W], his[B::W];
        for (size_t k = 0; k < B::W; ++k) {
            const size_t in = k % m, base = k - in;
            los[k] = in + q < m ? static_cast<int>(base + in + q) : -1;
            his[k] = rs && in + q + 1 < m
                         ? static_cast<int>(base + in + q + 1)
                         : -1; // hi is all zero when rs == 0
        }
        lo = B::makePerm(los);
        hi = B::makePerm(his);
        loInPlace = q == 0;
        r = B::splat(rs);
        rh = B::splat(rs ? 64 - rs : 0);
    }

    typename B::V
    operator()(typename B::V v) const
    {
        const typename B::V l = loInPlace ? v : B::permute(v, lo);
        return B::or_(B::shrv(l, r), B::shlv(B::permute(v, hi), rh));
    }
};

/** Member width (words) up to which the word loop keeps its carry. */
constexpr size_t kMaxMemberWords = 64;

/**
 * One step of the word loop on the member at word @p i: rows [0, w)
 * each take their in-member shifted copy (word k from words k + q
 * and k + q + 1, in three branch-free runs) added in, carry in @p c.
 * M and SHIFT fix the member width and shift (0: read at runtime).
 */
template <size_t M, unsigned SHIFT>
inline void
reduceStepWords(const ReduceRows &x, size_t i, unsigned w,
                unsigned shift_rt, uint64_t *c)
{
    const size_t m = M ? M : x.memberWords;
    const unsigned shift = SHIFT ? SHIFT : shift_rt;
    const size_t q = shift / 64;
    const unsigned r = shift % 64;
    // Words [0, both) read two source words, [both, one) the low one
    // only, [one, m) none.
    const size_t one = q < m ? m - q : 0;
    const size_t both = r && one > 0 ? one - 1 : 0;
    uint64_t s[M ? M : kMaxMemberWords];
    std::fill_n(c, m, uint64_t(0));
    for (unsigned j = 0; j < w; ++j) {
        uint64_t *row = x.acc[j] + i;
        for (size_t k = 0; k < both; ++k)
            s[k] = (row[k + q] >> r) | (row[k + q + 1] << ((64 - r) & 63));
        for (size_t k = both; k < one; ++k)
            s[k] = row[k + q] >> r;
        std::fill(s + one, s + m, uint64_t(0));
        if (shift == 1) // the last step's shifted rows stay in scratch
            std::copy_n(s, m, x.scratch[j] + i);
        for (size_t k = 0; k < m; ++k) {
            const uint64_t a = row[k];
            row[k] = a ^ s[k] ^ c[k];
            c[k] = (a & s[k]) | ((a ^ s[k]) & c[k]);
        }
    }
    std::copy_n(c, m, x.acc[w] + i);
}

/**
 * bitserial::reduceSum one member at a time, word by word, in place
 * on words [i, nw): the remainder of the register path, and every
 * member width no register holds whole. 256-lane members, the conv
 * geometry, run at fixed width and fixed shifts.
 */
template <size_t M>
void
reduceWords(const ReduceRows &x, size_t i, size_t nw)
{
    const size_t m = M ? M : x.memberWords;
    uint64_t c[M ? M : kMaxMemberWords];
    for (; i < nw; i += m) {
        unsigned w = x.w0;
        for (unsigned shift = x.lanes / 2; shift >= 1; shift /= 2, ++w) {
            if constexpr (M == 4) {
                switch (shift) {
                  case 1: reduceStepWords<4, 1>(x, i, w, 0, c); continue;
                  case 2: reduceStepWords<4, 2>(x, i, w, 0, c); continue;
                  case 4: reduceStepWords<4, 4>(x, i, w, 0, c); continue;
                  case 8: reduceStepWords<4, 8>(x, i, w, 0, c); continue;
                  case 16: reduceStepWords<4, 16>(x, i, w, 0, c); continue;
                  case 32: reduceStepWords<4, 32>(x, i, w, 0, c); continue;
                  case 64: reduceStepWords<4, 64>(x, i, w, 0, c); continue;
                  case 128: reduceStepWords<4, 128>(x, i, w, 0, c); continue;
                }
            }
            reduceStepWords<M, 0>(x, i, w, shift, c);
        }
        std::copy_n(c, m, x.carry + i);
    }
}

/**
 * bitserial::reduceSum on words [i, nw), a register of whole members
 * per chunk where the member width divides B::W: per step, every
 * live row is shifted in-member, added to itself with the carry in
 * a register, and the carry-out becomes the next row. Only the last
 * step's shifted rows stay in scratch, since every earlier step
 * writes a subset of its rows.
 */
template <class B>
void
reducePass(const ReduceRows &x, size_t i, size_t nw)
{
    using V = typename B::V;
    const size_t m = x.memberWords;
    if (B::W % m == 0 && i + B::W <= nw) {
        LaneShift<B> sh[32];
        unsigned steps = 0;
        for (unsigned shift = x.lanes / 2; shift >= 1; shift /= 2)
            sh[steps++] = LaneShift<B>(shift, m);
        const V zero = B::splat(0);
        for (; i + B::W <= nw; i += B::W) {
            V r[kMaxPassRows];
            for (unsigned j = 0; j < x.w0; ++j)
                r[j] = B::load(x.acc[j] + i);
            unsigned w = x.w0;
            V c = zero;
            for (unsigned st = 0; st < steps; ++st) {
                const bool last = st + 1 == steps;
                const LaneShift<B> shift = sh[st];
                c = zero;
                for (unsigned j = 0; j < w; ++j) {
                    const V a = r[j];
                    const V s = shift(a);
                    if (last)
                        B::store(x.scratch[j] + i, s);
                    r[j] = B::sum3(a, s, c);
                    c = B::maj3(a, s, c);
                }
                r[w++] = c;
            }
            for (unsigned j = 0; j < w; ++j)
                B::store(x.acc[j] + i, r[j]);
            B::store(x.carry + i, c);
        }
    }
    if (i < nw) {
        if constexpr (!std::is_same_v<typename B::Narrower, void>)
            reducePass<typename B::Narrower>(x, i, nw);
        else if (x.memberWords == 4) // 256-lane members, fixed width
            reduceWords<4>(x, i, nw);
        else
            reduceWords<0>(x, i, nw);
    }
}
/// @}

/** @name Table wrappers (the function-pointer shapes)
 *
 * Unpredicated and predicated forms are separate entry points: the
 * unpredicated ones are the hot inner loops of every arithmetic
 * kernel and stay within six integer argument registers so Array's
 * ops reach them as frameless sibling calls (kernels.hh). Each
 * wrapper first hands rows narrower than its own chunk straight to
 * the narrower tier's wrapper — the default 256-column geometry is
 * half an AVX-512 chunk, and threading it through the generic
 * chunk-loop + remainder recursion costs more bookkeeping than the
 * whole pass does work. addW additionally special-cases the exact
 * one-chunk add: that is the opAdd inner loop, hot enough that the
 * loop scaffolding around a single 3-load/2-op/2-store chunk shows
 * up in perf_report.
 */
/// @{
/**
 * Exactly one chunk of width B: the opAdd hot path. The carry row is
 * a loop-carried dependency across consecutive adds (stored here,
 * reloaded by the next op), so the chunk is written with as short a
 * load-to-store chain as the backend allows.
 */
template <class B>
inline void
addChunk(const uint64_t *a, const uint64_t *b, uint64_t *d,
         uint64_t *c, uint64_t tm)
{
    auto av = B::load(a);
    auto bv = B::load(b);
    auto cv = B::load(c);
    auto sum = B::sum3(av, bv, cv);
    auto cout = B::maj3(av, bv, cv);
    if (maskedTail(tm)) {
        auto lm = B::lastMask(tm);
        sum = B::and_(sum, lm);
        cout = B::and_(cout, lm);
    }
    B::store(d, sum);
    B::store(c, cout);
}

template <class B>
void
addW(const uint64_t *a, const uint64_t *b, uint64_t *d, uint64_t *c,
     size_t nw, uint64_t tm)
{
    if (nw == B::W)
        return addChunk<B>(a, b, d, c, tm);
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W) {
            // One chunk of the narrower sibling (the default
            // 256-column row under the 512-bit tier) is common
            // enough to resolve here rather than re-dispatch.
            if (nw == B::Narrower::W)
                return addChunk<typename B::Narrower>(a, b, d, c, tm);
            return addW<typename B::Narrower>(a, b, d, c, nw, tm);
        }
    }
    addPass<B, false>(a, b, d, c, nullptr, nw, tm);
}

template <class B>
void
addPredW(const uint64_t *a, const uint64_t *b, uint64_t *d,
         uint64_t *c, const uint64_t *t, size_t nw, uint64_t tm)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return addPredW<typename B::Narrower>(a, b, d, c, t, nw,
                                                  tm);
    }
    addPass<B, true>(a, b, d, c, t, nw, tm);
}

template <class B>
void
copyW(const uint64_t *s, uint64_t *d, size_t nw, uint64_t tm,
      bool invert)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return copyW<typename B::Narrower>(s, d, nw, tm, invert);
    }
    if (invert)
        copyPass<B, true, false>(s, d, nullptr, nw, tm);
    else
        copyPass<B, false, false>(s, d, nullptr, nw, tm);
}

template <class B>
void
copyPredW(const uint64_t *s, uint64_t *d, const uint64_t *t,
          size_t nw, uint64_t tm, bool invert)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return copyPredW<typename B::Narrower>(s, d, t, nw, tm,
                                                   invert);
    }
    if (invert)
        copyPass<B, true, true>(s, d, t, nw, tm);
    else
        copyPass<B, false, true>(s, d, t, nw, tm);
}

template <class B>
void
immW(uint64_t v, uint64_t *d, size_t nw, uint64_t tm)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return immW<typename B::Narrower>(v, d, nw, tm);
    }
    immPass<B, false>(v, d, nullptr, nw, tm);
}

template <class B>
void
immPredW(uint64_t v, uint64_t *d, const uint64_t *t, size_t nw,
         uint64_t tm)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return immPredW<typename B::Narrower>(v, d, t, nw, tm);
    }
    immPass<B, true>(v, d, t, nw, tm);
}

template <class B>
void
latchStoreW(const uint64_t *s, uint64_t *d, size_t nw)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return latchStoreW<typename B::Narrower>(s, d, nw);
    }
    latchStorePass<B, false>(s, d, nullptr, nw);
}

template <class B>
void
latchStorePredW(const uint64_t *s, uint64_t *d, const uint64_t *t,
                size_t nw)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W)
            return latchStorePredW<typename B::Narrower>(s, d, t, nw);
    }
    latchStorePass<B, true>(s, d, t, nw);
}

template <class B>
void
tagFoldW(TagFold op, uint64_t *t, const uint64_t *s, size_t nw)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W) {
            tagFoldW<typename B::Narrower>(op, t, s, nw);
            return;
        }
    }
    switch (op) {
    case TagFold::And:
        tagFoldPass<B, TagFold::And>(t, s, nw);
        break;
    case TagFold::AndInv:
        tagFoldPass<B, TagFold::AndInv>(t, s, nw);
        break;
    case TagFold::Or:
        tagFoldPass<B, TagFold::Or>(t, s, nw);
        break;
    }
}

template <class B>
void
loadLatchW(uint64_t *d, const uint64_t *s, size_t nw, uint64_t tm,
           bool invert)
{
    if constexpr (!std::is_same_v<typename B::Narrower, void>) {
        if (nw < B::W) {
            loadLatchW<typename B::Narrower>(d, s, nw, tm, invert);
            return;
        }
    }
    if (invert)
        loadLatchPass<B, true>(d, s, nw, tm);
    else
        loadLatchPass<B, false>(d, s, nw, tm);
}

template <class B>
void
multiplyW(const MulRows &x, size_t nw)
{
    mulPass<B, 0, 0, 0, false>(x, 0, nw);
}

template <class B>
void
macW(const MulRows &x, size_t nw)
{
    // The conv window's MAC (8 x 8 into 24 bits) at fixed widths, so
    // the product stays in registers; any other shape at runtime
    // widths.
    if (x.abits == 8 && x.bbits == 8 && x.accBits == 24)
        mulPass<B, 8, 8, 24, true>(x, 0, nw);
    else
        mulPass<B, 0, 0, 0, true>(x, 0, nw);
}

template <class B>
bool
reduceSumW(const ReduceRows &x, size_t nw)
{
    if (x.memberWords > kMaxMemberWords)
        return false;
    reducePass<B>(x, 0, nw);
    return true;
}
/// @}

/** Assemble one tier's dispatch table from the B instantiations. */
template <class B>
Table
makeTable(common::simd::Tier tier)
{
    Table t{};
    t.tier = tier;
    t.add = &addW<B>;
    t.addPred = &addPredW<B>;
    t.copy = &copyW<B>;
    t.copyPred = &copyPredW<B>;
    t.imm = &immW<B>;
    t.immPred = &immPredW<B>;
    t.latchStore = &latchStoreW<B>;
    t.latchStorePred = &latchStorePredW<B>;
    t.tagFold = &tagFoldW<B>;
    t.tagAndXnor = &tagAndXnorPass<B>;
    t.loadLatch = &loadLatchW<B>;
    t.transposeBlocks = &transposeBlocksPass<B>;
    t.packPlanes = &packPlanesPass<B>;
    t.multiply = &multiplyW<B>;
    t.mac = &macW<B>;
    t.reduceSum = &reduceSumW<B>;
    return t;
}

} // namespace

} // namespace nc::sram::kern


#endif // NC_SRAM_KERNELS_IMPL_HH

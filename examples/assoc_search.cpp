/**
 * @file
 * Associative search: the cache as a content-addressable memory.
 *
 * Neural Cache inherits Compute Cache's search capability (§II-B:
 * "copy, bulk zeroing, xor, equality comparison, and search"). This
 * example stores a table of 16-bit record keys transposed across the
 * bit lines of several arrays and answers WHERE-clause style queries
 * with tag-latch folds: exact match (searchKey), range predicates
 * (compareGE), and a conjunction of both — each in tens of cycles
 * regardless of how many records share an array.
 *
 * Usage: assoc_search [--seed S]
 */

#include <cstdio>
#include <vector>

#include "bitserial/alu.hh"
#include "bitserial/extensions.hh"
#include "cache/compute_cache.hh"
#include "common/argparse.hh"
#include "common/rng.hh"

int
main(int argc, char **argv)
{
    using namespace nc;
    namespace bs = bitserial;

    uint64_t seed = 99;
    common::ArgParser args("assoc_search",
                           "In-cache associative search demo");
    args.addUint64("seed", &seed, "record-table seed");
    args.parse(argc, argv);

    cache::ComputeCache cc;
    const unsigned arrays = 4;
    const unsigned lanes = cc.geometry().arrayCols;
    const unsigned records = arrays * lanes; // 1024 records

    // The "table": key (16 bits) and value (8 bits) per record.
    Rng rng(seed);
    std::vector<uint64_t> keys(records), vals(records);
    for (unsigned i = 0; i < records; ++i) {
        keys[i] = rng.uniformBits(14);
        vals[i] = rng.uniformBits(8);
    }
    keys[777] = 12345; // a needle to find later

    bs::RowAllocator rows(cc.geometry().arrayRows);
    bs::VecSlice key = rows.alloc(16);
    bs::VecSlice val = rows.alloc(8);
    bs::VecSlice thr = rows.alloc(16);
    bs::VecSlice cmp = rows.alloc(16);

    for (unsigned a = 0; a < arrays; ++a) {
        auto &arr = cc.array(a);
        std::vector<uint64_t> k(keys.begin() + a * lanes,
                                keys.begin() + (a + 1) * lanes);
        std::vector<uint64_t> v(vals.begin() + a * lanes,
                                vals.begin() + (a + 1) * lanes);
        bs::storeVector(arr, key, k);
        bs::storeVector(arr, val, v);
        bs::storeVector(arr, thr,
                        std::vector<uint64_t>(lanes, 12000));
    }

    std::printf("=== in-cache associative search over %u records "
                "===\n\n",
                records);

    // Query 1: WHERE key == 12345.
    unsigned hits = 0, hit_lane = 0, hit_array = 0;
    uint64_t cycles = 0;
    for (unsigned a = 0; a < arrays; ++a) {
        auto &arr = cc.array(a);
        cycles = bs::searchKey(arr, key, 12345);
        for (unsigned l = 0; l < lanes; ++l) {
            if (arr.tag().get(l)) {
                ++hits;
                hit_lane = l;
                hit_array = a;
            }
        }
    }
    std::printf("WHERE key == 12345: %u hit(s) in %llu cycles/array "
                "(record %u)\n",
                hits, (unsigned long long)cycles,
                hit_array * lanes + hit_lane);
    auto &harr = cc.array(hit_array);
    std::printf("  -> value = %llu\n",
                (unsigned long long)bs::loadLane(harr, val, hit_lane));

    // Query 2: WHERE key >= 12000 (range scan via compareGE).
    unsigned ge_hits = 0;
    for (unsigned a = 0; a < arrays; ++a) {
        auto &arr = cc.array(a);
        cycles = bs::compareGE(arr, key, thr, cmp);
        ge_hits += bs::matchCount(arr);
    }
    unsigned ge_want = 0;
    for (auto k : keys)
        ge_want += k >= 12000;
    std::printf("\nWHERE key >= 12000: %u hits (scan says %u), "
                "%llu cycles/array\n",
                ge_hits, ge_want, (unsigned long long)cycles);

    // Query 3: conjunction — key >= 12000 AND value == 7 — by
    // folding a search into the surviving tag.
    unsigned and_hits = 0;
    for (unsigned a = 0; a < arrays; ++a) {
        auto &arr = cc.array(a);
        bs::compareGE(arr, key, thr, cmp);
        // Fold "value == 7" into the existing tag (AND semantics).
        for (unsigned j = 0; j < 8; ++j) {
            if ((7u >> j) & 1)
                arr.opTagAnd(val.row(j));
            else
                arr.opTagAndInv(val.row(j));
        }
        and_hits += bs::matchCount(arr);
    }
    unsigned and_want = 0;
    for (unsigned i = 0; i < records; ++i)
        and_want += keys[i] >= 12000 && vals[i] == 7;
    std::printf("WHERE key >= 12000 AND value == 7: %u hits "
                "(scan says %u)\n",
                and_hits, and_want);

    std::printf("\neach predicate costs ~bit-width cycles per array, "
                "independent of the %u records per array — the BCAM "
                "behaviour the bit-line circuits were first built "
                "for.\n",
                lanes);
    return 0;
}

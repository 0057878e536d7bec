/**
 * @file
 * Summary statistics of the end-to-end benchmark: medians, quartiles
 * with the interpolation Python's statistics.quantiles(n=4) uses (so
 * the quartiles printed for a run's samples are the ones that tool
 * gives for them), the tail-percentile rule, and the paper-error and
 * lagging-generator verdicts.
 */

#ifndef NC_NBENCH_STATS_HH
#define NC_NBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace nc::nbench
{

/** Median of @p v (mean of the middle pair for even sizes; 0 when
 * empty). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Quartiles
{
    double q1 = 0, q2 = 0, q3 = 0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(data, n=4), the default: cut point i sits at
 * 1-based position i*(n+1)/4, linearly interpolated and clamped to
 * the data. Needs at least two values (Python raises below that);
 * a single value yields it three times.
 */
inline Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld == 1) {
        q.q1 = q.q2 = q.q3 = v[0];
        return q;
    }
    const long n = 4, m = ld + 1;
    double cut[3];
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        cut[i - 1] = (v[j - 1] * static_cast<double>(n - delta) +
                      v[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    q.q1 = cut[0];
    q.q2 = cut[1];
    q.q3 = cut[2];
    return q;
}

/**
 * A timing's tail: the highest percentile of the ladder p50, p90,
 * p99, p99.9, p99.99 that has at least kMinBeyond samples beyond it.
 * With fewer than 2 * kMinBeyond samples no percentile qualifies and
 * valid is false — the caller reports the median alone.
 */
struct Tail
{
    static constexpr size_t kMinBeyond = 10;

    bool valid = false;
    double percentile = 0; ///< e.g. 99 for p99
    double value = 0;      ///< nearest-rank value at that percentile
    size_t samples = 0;    ///< sample count the tail was taken over
    size_t beyond = 0;     ///< samples strictly past the rank
};

inline Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    static constexpr double kLadder[] = {99.99, 99.9, 99, 90, 50};
    for (double p : kLadder) {
        // Nearest rank: the value at 1-based rank ceil(p/100 * n);
        // every sample above that rank lies beyond the percentile.
        size_t rank = static_cast<size_t>(
            std::ceil(p / 100.0 * static_cast<double>(v.size()) -
                      1e-9));
        if (rank == 0 || v.size() - rank < Tail::kMinBeyond)
            continue;
        std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
        t.valid = true;
        t.percentile = p;
        t.value = v[rank - 1];
        t.beyond = v.size() - rank;
        return t;
    }
    return t;
}

/** Absolute error of a modeled value against the paper's, percent. */
inline double
paperErrorPct(double modeled, double paper)
{
    return std::fabs(modeled - paper) / paper * 100.0;
}

/**
 * An open-loop generator lags when its tail send delay (the maximum
 * when too few sends for a tail) exceeds a quarter of the
 * inter-arrival interval: past that, requests bunch up and the
 * offered schedule is no longer the one the rate names.
 */
inline bool
generatorLagging(const std::vector<double> &lagMs, double intervalMs)
{
    if (lagMs.empty())
        return false;
    Tail t = tailOf(lagMs);
    double worst = t.valid ? t.value
                           : *std::max_element(lagMs.begin(),
                                               lagMs.end());
    return worst > 0.25 * intervalMs;
}

} // namespace nc::nbench

#endif // NC_NBENCH_STATS_HH

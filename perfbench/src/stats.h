/**
 * @file
 * Summary statistics for the serving benchmark.
 *
 * Percentiles use the nearest-rank definition and carry their own
 * support: a percentile is reported as supported only when at least
 * kMinBeyond samples lie above its rank, so a tail figure drawn from
 * one or two stragglers is never passed off as a p99.
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a percentile's rank to report it. */
inline constexpr size_t kMinBeyond = 10;

/** One percentile with the sample count it rests on. */
struct Percentile
{
    double q = 0;          //!< quantile in (0, 1]
    double value = 0;      //!< nearest-rank value (0 when no samples)
    size_t samples = 0;    //!< sample count
    size_t beyond = 0;     //!< samples strictly above the rank
    bool supported = false; //!< beyond >= kMinBeyond (median: samples > 0)
};

/** Nearest-rank percentile @p q of @p samples (any order). */
Percentile percentile(std::vector<double> samples, double q);

/** Median of @p samples (0 when empty). */
double median(std::vector<double> samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H

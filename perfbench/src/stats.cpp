#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile p;
    p.q = q;
    p.samples = samples.size();
    if (samples.empty())
        return p;
    // Nearest rank: the smallest value with at least q*n samples at or
    // below it. The small epsilon keeps q*n = 990.0000001 from rounding
    // up a whole rank.
    const double pos = std::ceil(q * double(samples.size()) - 1e-9);
    const size_t rank =
        std::min(samples.size(), std::max<size_t>(1, size_t(pos)));
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    p.value = samples[rank - 1];
    p.beyond = samples.size() - rank;
    p.supported = q <= 0.5 ? true : p.beyond >= kMinBeyond;
    return p;
}

double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5).value;
}

} // namespace perfbench

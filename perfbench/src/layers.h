/**
 * @file
 * Per-layer numbers of a traced run.
 *
 * Counters come from deltas of the server's own probes across the
 * measured window (StrixServer::stats, executorStats, cacheStats).
 * Times come from replays, after the window, of the layer functions
 * on the workload's own keys, ciphertexts, recorded frames and
 * circuit: the PBS sweep and its stages, the wire framing and payload
 * codec, EVK2 serialization, and circuit analysis and evaluation.
 * Replayed outputs are decrypt-checked like the load's.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <string>
#include <vector>

#include "loadgen.h"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * Append every per-layer metric for @p run to @p out. Returns false
 * if a replayed output decrypts wrong.
 */
bool layerMetrics(Workload &w, const RunResult &run,
                  std::vector<Metric> &out);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H

/**
 * @file
 * In-memory span recorder for the benchmark's own calls.
 *
 * Each span records a name, start, end, the span that caused it and
 * the request it belongs to. Spans stay in memory while the benchmark
 * runs and are written out once at exit, each with its self time: the
 * span's duration minus the part of its interval covered by its
 * children. A disabled Tracer records nothing and costs one branch
 * per call, so untraced runs measure the load path alone.
 */

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One recorded interval, nanoseconds on the benchmark's clock. */
struct Span
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  //!< index of the causing span, -1 for a root
    uint64_t request = 0; //!< request id shared by a request's spans
};

/** Self time of every span: duration minus the union of its children. */
std::vector<int64_t> selfTimes(const std::vector<Span> &spans);

class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id (-1 when disabled). */
    int64_t begin(const char *name, int64_t now_ns, uint64_t request,
                  int64_t parent = -1);

    /** Close span @p id at @p now_ns (no-op for -1). */
    void end(int64_t id, int64_t now_ns);

    /** Record a span whose interval is already known. */
    int64_t record(const char *name, int64_t start_ns, int64_t end_ns,
                   uint64_t request, int64_t parent = -1);

    const std::vector<Span> &spans() const { return spans_; }

    /** Median self time in microseconds per span name. */
    std::vector<std::pair<std::string, double>> medianSelfUs() const;

    /** Write every span with its self time as a JSON array. */
    bool writeJson(const std::string &path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H

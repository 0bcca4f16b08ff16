/**
 * @file
 * Tests of the benchmark's helpers (no framework; exit code 0 = pass):
 * the percentile and ten-samples-beyond rule, due-time latency
 * accounting in the open loop, span self time, and seeded replay of
 * the request streams.
 *
 *   cmake --build .bench_build/perfbench --target perfbench_selftest
 *   .bench_build/perfbench/perfbench_selftest
 */

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "ledger.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool cond, const char *what, int line)
{
    if (!cond) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++g_failures;
    }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(size_t n)
{
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) // reversed: order must not matter
        v.push_back(double(i));
    return v;
}

void
testPercentile()
{
    // Nearest rank over 1..1000: p99 is 990 with exactly 10 beyond.
    Percentile p = percentile(oneTo(1000), 0.99);
    EXPECT(near(p.value, 990));
    EXPECT(p.samples == 1000 && p.beyond == 10 && p.supported);

    // One sample fewer leaves only 9 beyond: not supported.
    p = percentile(oneTo(999), 0.99);
    EXPECT(p.beyond == 9 && !p.supported);

    // p90 needs 100 samples.
    EXPECT(percentile(oneTo(100), 0.90).supported);
    EXPECT(!percentile(oneTo(99), 0.90).supported);

    // Median: lower middle for even counts, always supported.
    p = percentile(oneTo(4), 0.5);
    EXPECT(near(p.value, 2) && p.supported);
    EXPECT(near(median({5, 1, 3}), 3));

    // Empty input reports zero samples, unsupported.
    p = percentile({}, 0.99);
    EXPECT(p.samples == 0 && !p.supported);
}

void
testDueTimeAccounting()
{
    // Four open-loop requests due at 0,1,2,3 ms; the generator stalls
    // and issues them all at 5 ms; replies land at 6 ms. Latency counts
    // from the due time, so the stall shows in every one of them.
    Ledger l(10'000);
    for (int64_t due = 0; due < 4000; due += 1000)
        l.add(due, 5000, 6000, true);
    const std::vector<double> lat = l.latenciesMs();
    EXPECT(lat.size() == 4);
    EXPECT(near(lat[0], 6) && near(lat[1], 5) && near(lat[2], 4) &&
           near(lat[3], 3));
    const std::vector<double> late = l.latenessMs();
    EXPECT(near(late[0], 5) && near(late[3], 2));

    // Warm-up requests (due < 0) are not attempted but their in-window
    // completions count towards throughput; failures miss every limit.
    l.add(-500, -500, 2000, true);
    l.add(9000, 9000, 20'000, false);
    EXPECT(l.attempted() == 5);
    EXPECT(l.failed() == 1);
    EXPECT(near(l.throughputPerS(), 5 * 1e6 / 10'000));
    EXPECT(near(l.withinLimitFrac(5.0), 3.0 / 5.0));
    EXPECT(near(l.withinLimitFrac(100.0), 4.0 / 5.0));
}

void
testSelfTime()
{
    // root [0,100) with children [10,30) and [20,50) (overlapping) and
    // [90,120) (clipped to the parent); grandchild [12,18) under the
    // first child.
    std::vector<Span> s(5);
    s[0] = {"root", 0, 100, -1, 1};
    s[1] = {"a", 10, 30, 0, 1};
    s[2] = {"b", 20, 50, 0, 1};
    s[3] = {"c", 90, 120, 0, 1};
    s[4] = {"d", 12, 18, 1, 1};
    const std::vector<int64_t> self = selfTimes(s);
    EXPECT(self[0] == 100 - 40 - 10);
    EXPECT(self[1] == 20 - 6);
    EXPECT(self[2] == 30 && self[3] == 30 && self[4] == 6);

    // A disabled tracer records nothing.
    Tracer off(false);
    EXPECT(off.begin("x", 0, 1) == -1 && off.spans().empty());
    Tracer on(true);
    const int64_t r = on.begin("root", 0, 7);
    on.end(on.begin("child", 2, 7, r), 5);
    on.end(r, 10);
    const auto med = on.medianSelfUs();
    EXPECT(med.size() == 2 && near(med[1].second, 7e-3));
}

std::vector<RequestSpec>
draw(const Mix &mix, uint64_t seed, size_t n)
{
    RequestStream s(mix, seed, 3);
    std::vector<RequestSpec> out;
    for (size_t i = 0; i < n; ++i)
        out.push_back(s.next());
    return out;
}

void
testSeededReplay()
{
    Mix open;
    open.open_loop = true;
    open.rate_per_s = 1000;
    open.phases_us = {-1'000'000, 0, 2'000'000};
    open.tenant_weights = zipfWeights(12, 1.4);
    open.lut_share = 0.2;
    open.luts = 8;
    const std::vector<RequestSpec> a = draw(open, 42, 3000);
    EXPECT(a == draw(open, 42, 3000));
    EXPECT(!(a == draw(open, 43, 3000)));

    // Each phase gets exactly rate * length arrivals, in order, inside
    // the phase; the stream ends after the last one.
    size_t warm = 0, window = 0;
    bool sorted = true;
    for (size_t i = 0; i < a.size(); ++i) {
        warm += a[i].due_us >= -1'000'000 && a[i].due_us < 0;
        window += a[i].due_us >= 0 && a[i].due_us < 2'000'000;
        sorted = sorted && (i == 0 || a[i - 1].due_us <= a[i].due_us);
    }
    EXPECT(warm == 1000 && window == 2000 && sorted);
    RequestStream s(open, 42, 3);
    for (int i = 0; i < 3000; ++i)
        s.next();
    EXPECT(s.next().due_us == std::numeric_limits<int64_t>::max());

    Mix circ;
    circ.circuit = true;
    circ.circuit_inputs = 8;
    const std::vector<RequestSpec> c = draw(circ, 7, 100);
    EXPECT(c == draw(circ, 7, 100));
    bool in_range = true;
    for (const RequestSpec &r : c)
        in_range = in_range && r.kind == Kind::Circuit && r.operands < 256;
    EXPECT(in_range);
}

} // namespace

int
main()
{
    testPercentile();
    testDueTimeAccounting();
    testSelfTime();
    testSeededReplay();
    if (g_failures == 0)
        std::printf("perfbench_selftest: all passed\n");
    return g_failures == 0 ? 0 : 1;
}

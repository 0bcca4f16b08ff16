/**
 * @file
 * strix_perfbench: one run of one serving workload.
 *
 *   strix_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> --slo-ms <ms> --out <result.json>
 *                   [--spans <spans.json>]
 *
 * Untraced (--trace 0): set up several times (setup_s is the median),
 * then measure the window and report the end-to-end metrics
 * (latency percentiles as medians over the workload's slices).
 * Traced (--trace 1): set up once, measure one untraced and one traced
 * window back to back (their difference is the tracing overhead),
 * then replay the layer functions and report the per-layer metrics;
 * the spans go to --spans with their self times.
 *
 * The result file carries the metrics, correctness, request counts
 * and the host description; perfbench/run.py builds this binary and
 * turns the file into the benchmark's output line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <sstream>
#include <string>
#include <sys/resource.h>
#include <thread>

#include "layers.h"
#include "loadgen.h"
#include "poly/simd.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetups = 5;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    double slo_ms = 0;
    std::string out, spans;
};

int
usage()
{
    std::string names;
    for (const std::string &n : workloadNames())
        names += " " + n;
    std::fprintf(stderr,
                 "usage: strix_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --slo-ms <ms> --out <file> "
                 "[--spans <file>]\nworkloads:%s\n",
                 names.c_str());
    return 2;
}

bool
parse(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::atof(v.c_str());
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--slo-ms")
            a.slo_ms = std::atof(v.c_str());
        else if (k == "--out")
            a.out = v;
        else if (k == "--spans")
            a.spans = v;
        else
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && !a.out.empty() &&
           a.seconds > 0 && a.slo_ms > 0;
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0)
            return line.substr(line.find(':') + 2);
    return "unknown";
}

/**
 * Start a fresh peak-RSS interval: hand memory freed during set-up back
 * to the kernel and reset the high-water mark, so rss_peak_mb is the
 * peak while serving the load. Set-up's transient buffers (the
 * multi-MB EVK2 upload in flight) otherwise decide the peak, and how
 * they overlap varies run to run.
 */
void
resetPeakRss()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
    std::ofstream("/proc/self/clear_refs") << "5";
}

/** Peak resident set since resetPeakRss(), MiB. */
double
rssPeakMiB()
{
    std::ifstream f("/proc/self/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::atof(line.c_str() + 6) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

std::string
quoted(const std::string &s)
{
    std::string o = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o + "\"";
}

std::string
percentileJson(const Percentile &p)
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"q\": " << p.q << ", \"value\": " << p.value
       << ", \"samples\": " << p.samples << ", \"beyond\": " << p.beyond
       << ", \"supported\": " << (p.supported ? "true" : "false") << "}";
    return os.str();
}

/** Per-slice figures of one window (see WorkloadSpec::slices). */
struct Slices
{
    std::vector<double> p50, tail;
    Percentile p50_support, tail_support; //!< of the thinnest slice
};

Slices
slices(const Ledger &l, const WorkloadSpec &spec)
{
    Slices s;
    const int64_t w = l.windowUs();
    for (int i = 0; i < spec.slices; ++i) {
        const int64_t from = w * i / spec.slices,
                      to = w * (i + 1) / spec.slices;
        const std::vector<double> lat = l.latenciesMs(from, to);
        const Percentile p50 = percentile(lat, 0.5),
                         tail = percentile(lat, spec.tail_q);
        s.p50.push_back(p50.value);
        s.tail.push_back(tail.value);
        if (i == 0 || p50.samples < s.p50_support.samples)
            s.p50_support = p50;
        if (i == 0 || tail.beyond < s.tail_support.beyond)
            s.tail_support = tail;
    }
    return s;
}

std::string
list(const std::vector<double> &v)
{
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    return os.str() + "]";
}

bool
runWindow(Workload &w, Tracer &tracer, const Args &a, RunResult &out)
{
    if (!runLoad(w, tracer, int64_t(a.seconds * 1e6), out)) {
        std::fprintf(stderr, "load generator failed\n");
        return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    if (!parse(argc, argv, a))
        return usage();
    const WorkloadSpec *spec = findWorkload(a.workload);
    if (!spec)
        return usage();

    std::vector<Metric> metrics;
    std::ostringstream info;
    info.precision(17);
    bool correct = true;
    size_t attempted = 0, failed = 0;
    try {
        Workload w(*spec, a.seed);
        std::vector<double> setups;
        for (int i = 0; i < (a.trace ? 1 : kSetups); ++i)
            setups.push_back(w.setupOnce());
        resetPeakRss();

        Tracer off(false);
        RunResult run;
        if (!runWindow(w, off, a, run))
            return 1;
        const Slices sl = slices(run.ledger, *spec);
        attempted = run.ledger.attempted();
        failed = run.ledger.failed();
        correct = run.mismatches == 0 && attempted > failed;

        info << "\"setup_samples_s\": " << list(setups)
             << ", \"slice_lat_p50_ms\": " << list(sl.p50)
             << ", \"slice_lat_tail_ms\": " << list(sl.tail)
             << ", \"lat_p50_ms\": " << percentileJson(sl.p50_support)
             << ", \"lat_tail_ms\": " << percentileJson(sl.tail_support)
             << ", \"late_p99_ms\": "
             << percentileJson(percentile(run.ledger.latenessMs(), 0.99))
             << ", \"issued\": " << run.issued
             << ", \"reregistrations\": " << run.reregistrations
             << ", \"slo_ms\": " << a.slo_ms << ", \"failures\": {";
        bool first = true;
        for (const auto &[cause, n] : run.failures) {
            info << (first ? "" : ", ") << quoted(cause) << ": " << n;
            first = false;
        }
        info << "}";
        if (!sl.tail_support.supported)
            std::fprintf(stderr,
                         "warning: lat_tail_ms (q=%.2f) rests on %zu "
                         "samples beyond it in its thinnest slice\n",
                         spec->tail_q, sl.tail_support.beyond);

        if (!a.trace) {
            metrics.push_back({"setup_s", median(setups), "s"});
            metrics.push_back(
                {"req_per_s", run.ledger.throughputPerS(), "1/s"});
            metrics.push_back({"lat_p50_ms", median(sl.p50), "ms"});
            metrics.push_back({"lat_tail_ms", median(sl.tail), "ms"});
            metrics.push_back(
                {"slo_ok_frac", run.ledger.withinLimitFrac(a.slo_ms),
                 "frac"});
            metrics.push_back(
                {"ok_frac",
                 attempted ? 1.0 - double(failed) / double(attempted) : 0.0,
                 "frac"});
            metrics.push_back({"rss_peak_mb", rssPeakMiB(), "MiB"});
        } else {
            Tracer tracer(true);
            RunResult traced;
            if (!runWindow(w, tracer, a, traced))
                return 1;
            correct = correct && traced.mismatches == 0;
            const bool layers_ok = layerMetrics(w, traced, metrics);
            correct = correct && layers_ok;
            for (const char *name :
                 {"request", "encrypt", "encode", "send", "wait", "decode",
                  "check", "register"}) {
                double v = 0;
                for (const auto &[n, us] : tracer.medianSelfUs())
                    if (n == name)
                        v = us;
                metrics.push_back(
                    {std::string("span.") + name + "_self_us", v, "us"});
            }
            const Slices tsl = slices(traced.ledger, *spec);
            const double p50 = median(sl.p50),
                         rps = run.ledger.throughputPerS();
            metrics.push_back(
                {"trace.overhead_p50_pct",
                 p50 > 0 ? 100.0 * (median(tsl.p50) / p50 - 1) : 0, "%"});
            metrics.push_back(
                {"trace.overhead_rps_pct",
                 rps > 0
                     ? 100.0 * (1 - traced.ledger.throughputPerS() / rps)
                     : 0,
                 "%"});
            if (!a.spans.empty() && !tracer.writeJson(a.spans))
                std::fprintf(stderr, "cannot write %s\n", a.spans.c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::FILE *f = std::fopen(a.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
                 "\"window_s\": %.17g, \"correct\": %s, \"attempted\": %zu, "
                 "\"failed\": %zu,\n \"host\": {\"cpu\": %s, \"nproc\": %u, "
                 "\"fft_kernel\": %s, \"build_type\": %s},\n \"info\": {%s},\n"
                 " \"metrics\": {",
                 quoted(a.workload).c_str(), (unsigned long long)a.seed,
                 a.trace ? 1 : 0, a.seconds, correct ? "true" : "false",
                 attempted, failed, quoted(cpuModel()).c_str(),
                 std::thread::hardware_concurrency(),
                 quoted(strix::activeKernels().name).c_str(),
                 quoted(PERFBENCH_BUILD_TYPE).c_str(), info.str().c_str());
    for (size_t i = 0; i < metrics.size(); ++i)
        std::fprintf(f, "%s\n  %s: {\"value\": %.17g, \"unit\": %s}",
                     i ? "," : "", quoted(metrics[i].name).c_str(),
                     metrics[i].value, quoted(metrics[i].unit).c_str());
    std::fprintf(f, "\n }\n}\n");
    return std::fclose(f) == 0 ? 0 : 1;
}

#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "stats.h"

namespace perfbench {

std::vector<int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0 && size_t(spans[i].parent) < spans.size())
            children[size_t(spans[i].parent)].push_back(i);

    std::vector<int64_t> self(spans.size());
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        iv.clear();
        for (size_t c : children[i]) {
            // Only the part of a child inside its parent counts.
            const int64_t a = std::max(spans[c].start_ns, s.start_ns);
            const int64_t b = std::min(spans[c].end_ns, s.end_ns);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        int64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = (s.end_ns - s.start_ns) - covered;
    }
    return self;
}

int64_t
Tracer::begin(const char *name, int64_t now_ns, uint64_t request,
              int64_t parent)
{
    return record(name, now_ns, now_ns, request, parent);
}

void
Tracer::end(int64_t id, int64_t now_ns)
{
    if (id >= 0)
        spans_[size_t(id)].end_ns = now_ns;
}

int64_t
Tracer::record(const char *name, int64_t start_ns, int64_t end_ns,
               uint64_t request, int64_t parent)
{
    if (!enabled_)
        return -1;
    spans_.push_back({name, start_ns, end_ns, parent, request});
    return int64_t(spans_.size()) - 1;
}

std::vector<std::pair<std::string, double>>
Tracer::medianSelfUs() const
{
    const std::vector<int64_t> self = selfTimes(spans_);
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < spans_.size(); ++i)
        by_name[spans_[i].name].push_back(double(self[i]) * 1e-3);
    std::vector<std::pair<std::string, double>> out;
    for (auto &[name, v] : by_name)
        out.emplace_back(name, median(std::move(v)));
    return out;
}

bool
Tracer::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<int64_t> self = selfTimes(spans_);
    std::fprintf(f, "[");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"id\":%zu,\"name\":\"%s\",\"request\":%llu,"
                     "\"parent\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                     "\"self_ns\":%lld}",
                     i ? "," : "", i, s.name,
                     (unsigned long long)s.request, (long long)s.parent,
                     (long long)s.start_ns, (long long)s.end_ns,
                     (long long)self[i]);
    }
    std::fprintf(f, "\n]\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

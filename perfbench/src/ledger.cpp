#include "ledger.h"

namespace perfbench {

void
Ledger::add(int64_t due_us, int64_t issued_us, int64_t done_us, bool ok)
{
    entries_.push_back({due_us, issued_us, done_us, ok});
}

size_t
Ledger::attempted() const
{
    size_t n = 0;
    for (const Entry &e : entries_)
        n += inWindow(e);
    return n;
}

size_t
Ledger::failed() const
{
    size_t n = 0;
    for (const Entry &e : entries_)
        n += inWindow(e) && !e.ok;
    return n;
}

double
Ledger::throughputPerS() const
{
    if (window_us_ <= 0)
        return 0;
    size_t n = 0;
    for (const Entry &e : entries_)
        n += e.ok && e.done_us >= 0 && e.done_us < window_us_;
    return double(n) * 1e6 / double(window_us_);
}

std::vector<double>
Ledger::latenciesMs(int64_t from_us, int64_t to_us) const
{
    std::vector<double> out;
    for (const Entry &e : entries_)
        if (e.ok && e.due_us >= from_us && e.due_us < to_us)
            out.push_back(double(e.done_us - e.due_us) * 1e-3);
    return out;
}

std::vector<double>
Ledger::latenessMs() const
{
    std::vector<double> out;
    for (const Entry &e : entries_)
        if (inWindow(e))
            out.push_back(double(e.issued_us - e.due_us) * 1e-3);
    return out;
}

double
Ledger::withinLimitFrac(double limit_ms) const
{
    const size_t n = attempted();
    if (n == 0)
        return 0;
    size_t met = 0;
    for (const Entry &e : entries_)
        met += inWindow(e) && e.ok &&
               double(e.done_us - e.due_us) * 1e-3 <= limit_ms;
    return double(met) / double(n);
}

} // namespace perfbench

/**
 * @file
 * Per-request accounting for one run.
 *
 * Every request the load generator issues is entered once, with three
 * times on the window clock (0 = start of the measured window):
 * when it was due, when the generator actually issued it, and when its
 * reply was decode-checked. Latency is measured from the due time, so
 * a generator stall counts against every request it delayed instead of
 * vanishing; lateness (issued - due) is the generator's own health.
 * For a closed loop the due time is the issue time.
 *
 * A request counts as attempted when it was due inside the window.
 * Failures (error replies, refusals, wrong outputs, timeouts) count
 * against attempted and miss any latency limit.
 */

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class Ledger
{
  public:
    explicit Ledger(int64_t window_us = 0) : window_us_(window_us) {}

    /**
     * Enter one request. @p done_us is when its reply was checked (or
     * when it was given up on); @p ok is false for any failure.
     */
    void add(int64_t due_us, int64_t issued_us, int64_t done_us, bool ok);

    int64_t windowUs() const { return window_us_; }

    /** Requests due inside the window. */
    size_t attempted() const;
    /** Attempted requests that did not end in a correct reply. */
    size_t failed() const;

    /** Correct replies checked inside the window, per second. */
    double throughputPerS() const;

    /** Due-to-checked latency of every correct attempted request. */
    std::vector<double> latenciesMs() const
    {
        return latenciesMs(0, window_us_);
    }
    /** The same, for correct requests due inside [from, to). */
    std::vector<double> latenciesMs(int64_t from_us, int64_t to_us) const;

    /** Issue lateness (issued - due) of every attempted request. */
    std::vector<double> latenessMs() const;

    /** Share of attempted requests answered correctly within @p ms. */
    double withinLimitFrac(double limit_ms) const;

  private:
    struct Entry
    {
        int64_t due_us, issued_us, done_us;
        bool ok;
    };

    bool inWindow(const Entry &e) const
    {
        return e.due_us >= 0 && e.due_us < window_us_;
    }

    int64_t window_us_;
    std::vector<Entry> entries_;
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H

#include "schedule.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench {

bool
RequestSpec::operator==(const RequestSpec &o) const
{
    return stream == o.stream && index == o.index && due_us == o.due_us &&
           tenant == o.tenant && kind == o.kind && lut == o.lut &&
           message == o.message && operands == o.operands;
}

std::vector<double>
zipfWeights(size_t n, double s)
{
    std::vector<double> w(n);
    for (size_t i = 0; i < n; ++i)
        w[i] = 1.0 / std::pow(double(i + 1), s);
    return w;
}

RequestStream::RequestStream(const Mix &mix, uint64_t seed,
                             uint32_t stream)
    : mix_(mix), rng_(strix::Rng(seed).fork(stream)), stream_(stream)
{
    double acc = 0;
    for (double w : mix_.tenant_weights)
        cdf_.push_back(acc += w);
    for (double &c : cdf_)
        c /= acc;
}

RequestSpec
RequestStream::next()
{
    RequestSpec r;
    r.stream = stream_;
    r.index = index_++;
    if (mix_.open_loop) {
        while (due_next_ == due_.size() && phase_ + 1 < mix_.phases_us.size()) {
            const int64_t a = mix_.phases_us[phase_],
                          b = mix_.phases_us[phase_ + 1];
            ++phase_;
            due_.assign(size_t(std::llround(mix_.rate_per_s *
                                            double(b - a) * 1e-6)),
                        0);
            for (int64_t &d : due_)
                d = a + int64_t(rng_.uniformDouble() * double(b - a));
            std::sort(due_.begin(), due_.end());
            due_next_ = 0;
        }
        r.due_us = due_next_ < due_.size()
                       ? due_[due_next_++]
                       : std::numeric_limits<int64_t>::max();
    }
    const double pick = rng_.uniformDouble();
    r.tenant = uint32_t(std::upper_bound(cdf_.begin(), cdf_.end(), pick) -
                        cdf_.begin());
    r.tenant = std::min<uint32_t>(r.tenant, uint32_t(cdf_.size() - 1));
    if (mix_.circuit) {
        r.kind = Kind::Circuit;
        r.operands = rng_.next64() &
                     ((uint64_t(1) << mix_.circuit_inputs) - 1);
        return r;
    }
    r.kind = rng_.uniformDouble() < mix_.lut_share ? Kind::ApplyLut
                                                   : Kind::Bootstrap;
    r.lut = uint32_t(rng_.uniformBelow(mix_.luts));
    r.message = int64_t(rng_.uniformBelow(mix_.msg_space));
    return r;
}

} // namespace perfbench

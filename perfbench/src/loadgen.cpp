#include "loadgen.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <poll.h>
#include <stdexcept>
#include <time.h>

#include "net/wire.h"
#include "server/wire_codec.h"

namespace perfbench {

using namespace strix;

namespace {

using Clock = std::chrono::steady_clock;

/** Sends of one request before it counts as failed. */
constexpr int kMaxAttempts = 4;
/** How long the drain may take before outstanding work times out. */
constexpr int64_t kDrainNs = 30'000'000'000;
/** Request ids of registrations: tenant index with this bit set. */
constexpr uint64_t kRegisterBit = uint64_t(1) << 62;
/** Warm-up before the window: pool spin-up, key-cache churn settles. */
constexpr int64_t kWarmupUs = 1'000'000;
/** Request frames (and replies) kept for the layer replays. */
constexpr size_t kRecorded = 64;

struct Conn
{
    TcpConn sock;
    FrameDecoder dec;
    std::vector<uint8_t> out; //!< bytes not yet accepted by the kernel
    size_t off = 0;           //!< consumed prefix of out

    bool pending() const { return off < out.size(); }
};

struct Req
{
    RequestSpec spec;
    int64_t due_ns = 0;
    int64_t issued_ns = 0;
    std::vector<uint8_t> frame; //!< kept for resends after eviction
    uint64_t sent_epoch = 0;    //!< tenant registration epoch at send
    int attempts = 0;
    int64_t root = -1, wait = -1; //!< span ids
    size_t recorded = SIZE_MAX;   //!< slot in RunResult::recorded
};

struct TenantState
{
    uint64_t epoch = 0;       //!< completed (re-)registrations
    bool registering = false; //!< a registration is in flight
    int64_t span = -1;
    std::vector<uint64_t> parked; //!< requests waiting for it
    std::vector<uint8_t> frame;   //!< RegisterTenant frame (lazy)
};

class Generator
{
  public:
    Generator(Workload &w, Tracer &tr, int64_t window_us, RunResult &out)
        : w_(w), tr_(tr), out_(out), window_ns_(window_us * 1000),
          open_(w.spec().mix.open_loop), tenants_(w.tenants())
    {
        out_.ledger = Ledger(window_us);
    }

    bool run();

  private:
    int64_t now() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - t0_)
            .count();
    }

    size_t connOf(const RequestSpec &r) const
    {
        return open_ ? r.tenant % conns_.size() : r.stream;
    }

    void issue(const RequestSpec &spec, int64_t due_ns);
    void transmit(uint64_t id);
    void startRegistration(uint32_t tenant);
    void onRegistered(uint32_t tenant, bool ok);
    void onReply(WireMessage &&m);
    void finish(uint64_t id, bool ok, const char *cause);
    void queue(size_t c, const std::vector<uint8_t> &frame);
    void flush(size_t c);
    void readConn(size_t c);
    void snapshot(Snapshot &s) const
    {
        s.server = w_.server().stats();
        s.exec = w_.server().executorStats();
        s.cache = w_.server().cacheStats();
    }

    Workload &w_;
    Tracer &tr_;
    RunResult &out_;
    const int64_t window_ns_;
    const bool open_;
    Clock::time_point t0_;
    std::vector<Conn> conns_;
    std::vector<RequestStream> streams_;
    std::map<uint64_t, Req> reqs_;
    std::vector<TenantState> tenants_;
    uint64_t next_id_ = 1;
    bool fatal_ = false;
};

void
Generator::issue(const RequestSpec &spec, int64_t due_ns)
{
    const uint64_t id = next_id_++;
    Req &r = reqs_[id];
    r.spec = spec;
    r.due_ns = due_ns;
    r.issued_ns = now();
    ++out_.issued;
    r.root = tr_.record("request", due_ns, due_ns, id);

    int64_t s = tr_.begin("encrypt", now(), id, r.root);
    const std::vector<LweCiphertext> cts = w_.encrypt(spec);
    tr_.end(s, now());

    s = tr_.begin("encode", now(), id, r.root);
    WireMessage m;
    m.type = w_.type(spec);
    m.tenant = w_.wireTenant(spec.tenant);
    m.request_id = id;
    m.payload = w_.encode(spec, cts);
    r.frame = encodeMessage(m);
    tr_.end(s, now());

    if (out_.recorded.size() < kRecorded) {
        r.recorded = out_.recorded.size();
        out_.recorded.push_back({spec, r.frame, {}});
    }
    TenantState &ts = tenants_[spec.tenant];
    if (ts.registering)
        ts.parked.push_back(id);
    else
        transmit(id);
}

void
Generator::transmit(uint64_t id)
{
    Req &r = reqs_.at(id);
    const int64_t s = tr_.begin("send", now(), id, r.root);
    const size_t c = connOf(r.spec);
    queue(c, r.frame);
    flush(c);
    tr_.end(s, now());
    r.wait = tr_.begin("wait", now(), id, r.root);
    r.sent_epoch = tenants_[r.spec.tenant].epoch;
    ++r.attempts;
    ++out_.sent;
    ++out_.req_frames;
    out_.req_frame_bytes += r.frame.size();
}

void
Generator::startRegistration(uint32_t tenant)
{
    TenantState &ts = tenants_[tenant];
    if (ts.frame.empty()) {
        WireMessage m;
        m.type = MsgType::RegisterTenant;
        m.tenant = w_.wireTenant(tenant);
        m.request_id = kRegisterBit | tenant;
        m.payload = w_.evkPayload(tenant);
        ts.frame = encodeMessage(m);
    }
    ts.registering = true;
    ts.span = tr_.begin("register", now(), kRegisterBit | tenant);
    ++out_.reregistrations;
    ++out_.sent;
    const size_t c = tenant % conns_.size();
    queue(c, ts.frame);
    flush(c);
}

void
Generator::onRegistered(uint32_t tenant, bool ok)
{
    TenantState &ts = tenants_[tenant];
    tr_.end(ts.span, now());
    ts.registering = false;
    std::vector<uint64_t> parked;
    parked.swap(ts.parked);
    if (ok)
        ++ts.epoch;
    for (uint64_t id : parked) {
        if (ok)
            transmit(id);
        else
            finish(id, false, "register");
    }
}

void
Generator::onReply(WireMessage &&m)
{
    if (m.request_id & kRegisterBit) {
        const uint64_t tenant = m.request_id & ~kRegisterBit;
        if (tenant >= tenants_.size() || !tenants_[tenant].registering) {
            fatal_ = true;
            std::fprintf(stderr, "stray registration reply\n");
            return;
        }
        onRegistered(uint32_t(tenant), m.type == MsgType::Ok);
        return;
    }
    auto it = reqs_.find(m.request_id);
    if (it == reqs_.end()) {
        fatal_ = true;
        std::fprintf(stderr, "reply for unknown request %llu\n",
                     (unsigned long long)m.request_id);
        return;
    }
    const uint64_t id = it->first;
    Req &r = it->second;
    tr_.end(r.wait, now());
    ++out_.reply_frames;
    out_.reply_frame_bytes += kMsg1HeaderBytes + m.payload.size();

    if (m.type == MsgType::Ok) {
        int64_t s = tr_.begin("decode", now(), id, r.root);
        std::vector<LweCiphertext> cts;
        try {
            cts = decodeCiphertexts(m.payload);
        } catch (const std::exception &) {
            tr_.end(s, now());
            finish(id, false, "decode");
            return;
        }
        tr_.end(s, now());
        s = tr_.begin("check", now(), id, r.root);
        const bool ok = w_.check(r.spec, cts);
        tr_.end(s, now());
        if (ok && r.recorded != SIZE_MAX)
            out_.recorded[r.recorded].reply_payload = std::move(m.payload);
        out_.mismatches += !ok;
        finish(id, ok, "mismatch");
        return;
    }
    WireError code = WireError::Protocol;
    if (m.type == MsgType::Error) {
        try {
            code = decodeErrorPayload(m.payload).code;
        } catch (const std::exception &) {
        }
    }
    if (code == WireError::UnknownTenant && r.attempts < kMaxAttempts) {
        // Evicted. Re-register only if no registration completed since
        // this request went out; otherwise the bundle is back already.
        TenantState &ts = tenants_[r.spec.tenant];
        if (!ts.registering && r.sent_epoch == ts.epoch)
            startRegistration(r.spec.tenant);
        if (ts.registering)
            ts.parked.push_back(id);
        else
            transmit(id);
        return;
    }
    finish(id, false, wireErrorName(code));
}

void
Generator::finish(uint64_t id, bool ok, const char *cause)
{
    auto it = reqs_.find(id);
    Req &r = it->second;
    const int64_t done = now();
    tr_.end(r.root, done);
    out_.ledger.add(r.due_ns / 1000, r.issued_ns / 1000, done / 1000, ok);
    if (!ok)
        ++out_.failures[cause];
    const uint32_t stream = r.spec.stream;
    reqs_.erase(it);
    if (!open_ && done < window_ns_)
        issue(streams_[stream].next(), now());
}

void
Generator::queue(size_t c, const std::vector<uint8_t> &frame)
{
    Conn &k = conns_[c];
    if (k.off > 0 && k.off == k.out.size()) {
        k.out.clear();
        k.off = 0;
    }
    k.out.insert(k.out.end(), frame.begin(), frame.end());
}

void
Generator::flush(size_t c)
{
    Conn &k = conns_[c];
    while (k.pending()) {
        size_t put = 0;
        const TcpConn::IoResult res =
            k.sock.writeSome(k.out.data() + k.off, k.out.size() - k.off, put);
        if (res == TcpConn::IoResult::WouldBlock)
            return;
        if (res != TcpConn::IoResult::Ok) {
            fatal_ = true;
            std::fprintf(stderr, "connection %zu: write failed\n", c);
            return;
        }
        k.off += put;
    }
}

void
Generator::readConn(size_t c)
{
    Conn &k = conns_[c];
    uint8_t buf[64 * 1024];
    for (;;) {
        size_t got = 0;
        const TcpConn::IoResult res = k.sock.readSome(buf, sizeof(buf), got);
        if (res == TcpConn::IoResult::WouldBlock)
            return;
        if (res != TcpConn::IoResult::Ok) {
            fatal_ = true;
            std::fprintf(stderr, "connection %zu: read failed\n", c);
            return;
        }
        k.dec.feed(buf, got);
        WireMessage m;
        try {
            while (k.dec.next(m))
                onReply(std::move(m));
        } catch (const std::exception &e) {
            fatal_ = true;
            std::fprintf(stderr, "connection %zu: %s\n", c, e.what());
            return;
        }
    }
}

bool
Generator::run()
{
    const WorkloadSpec &spec = w_.spec();
    for (size_t c = 0; c < spec.conns; ++c) {
        Conn k;
        k.sock = TcpConn::connectLoopback(w_.server().port());
        if (!k.sock.valid() || !k.sock.setNonBlocking(true) ||
            !k.sock.setNoDelay(true)) {
            std::fprintf(stderr, "cannot connect load connection %zu\n", c);
            return false;
        }
        conns_.push_back(std::move(k));
    }
    Mix mix = spec.mix;
    mix.phases_us = {-kWarmupUs, 0, window_ns_ / 1000};
    for (size_t s = 0; s < (open_ ? 1 : spec.conns); ++s)
        streams_.emplace_back(mix, w_.seed(), uint32_t(s));

    t0_ = Clock::now() + std::chrono::microseconds(kWarmupUs);
    RequestSpec next; // open loop: the next arrival
    if (open_) {
        next = streams_[0].next();
    } else {
        for (size_t c = 0; c < spec.conns; ++c)
            for (size_t k = 0; k < spec.window; ++k)
                issue(streams_[c].next(), now());
    }

    // Due time of the next open-loop arrival; none after the window.
    auto nextDue = [&] {
        return open_ && next.due_us < window_ns_ / 1000
                   ? next.due_us * 1000
                   : std::numeric_limits<int64_t>::max();
    };
    bool started = false, ended = false;
    std::vector<pollfd> fds(conns_.size());
    for (;;) {
        int64_t t = now();
        if (!started && t >= 0) {
            snapshot(out_.at_start);
            started = true;
        }
        if (!ended && t >= window_ns_) {
            snapshot(out_.at_end);
            ended = true;
        }
        while (nextDue() <= t) {
            issue(next, nextDue());
            next = streams_[0].next();
            t = now();
        }
        if (fatal_)
            return false;
        if (ended && reqs_.empty())
            break;
        if (t >= window_ns_ + kDrainNs) {
            while (!reqs_.empty())
                finish(reqs_.begin()->first, false, "timeout");
            break;
        }

        int64_t wake = window_ns_ + kDrainNs;
        if (!started)
            wake = 0;
        else if (!ended)
            wake = window_ns_;
        wake = std::min(wake, nextDue());
        const int64_t wait_ns = std::max<int64_t>(0, wake - now());
        timespec ts{time_t(wait_ns / 1'000'000'000),
                    long(wait_ns % 1'000'000'000)};
        for (size_t c = 0; c < conns_.size(); ++c) {
            fds[c].fd = conns_[c].sock.fd();
            fds[c].events =
                short(POLLIN | (conns_[c].pending() ? POLLOUT : 0));
            fds[c].revents = 0;
        }
        if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0)
            continue; // timeout or EINTR
        for (size_t c = 0; c < conns_.size(); ++c) {
            if (fds[c].revents & POLLOUT)
                flush(c);
            if (fds[c].revents & (POLLIN | POLLERR | POLLHUP))
                readConn(c);
        }
    }
    return true;
}

} // namespace

bool
runLoad(Workload &w, Tracer &tracer, int64_t window_us, RunResult &out)
{
    Generator g(w, tracer, window_us, out);
    return g.run();
}

} // namespace perfbench

#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "net/client.h"
#include "net/wire.h"
#include "poly/negacyclic_fft.h"
#include "server/wire_codec.h"
#include "stats.h"
#include "tfhe/bootstrap.h"
#include "tfhe/decompose.h"
#include "tfhe/keyswitch.h"
#include "tfhe/server_context.h"
#include "workloads/circuit_analysis.h"

namespace perfbench {

using namespace strix;

namespace {

using Clock = std::chrono::steady_clock;

/** Defeats dead-code elimination of inlined replays. */
volatile uint64_t g_sink = 0;

/**
 * Median over @p reps of the mean time of @p inner back-to-back calls
 * of @p f, in microseconds.
 */
template <class F>
double
medianUs(F &&f, int reps, int inner = 1)
{
    std::vector<double> v;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = Clock::now();
        for (int i = 0; i < inner; ++i)
            f();
        v.push_back(
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count() /
            inner);
    }
    return median(std::move(v));
}

double
ratio(uint64_t num, uint64_t den)
{
    return den == 0 ? 0.0 : double(num) / double(den);
}

constexpr double kMiB = 1024.0 * 1024.0;

} // namespace

bool
layerMetrics(Workload &w, const RunResult &run, std::vector<Metric> &out)
{
    auto add = [&out](const char *name, double value, const char *unit) {
        out.push_back({name, value, unit});
    };
    bool ok = true;
    const ClientKeyset &keys = w.keys(0);
    const TfheParams &p = keys.params();
    const uint64_t space = w.spec().mix.msg_space;
    ServerContext ctx(keys.evalKeys());
    Rng rng = Rng(w.seed()).fork(0x4C41594552ull);

    // -- sweep: the executor's unit of work, on this run's keys -------
    const size_t target = w.server().options().exec.target_batch;
    std::vector<LweCiphertext> cts;
    for (size_t i = 0; i < target; ++i)
        cts.push_back(keys.encryptInt(int64_t(i % space), space, rng));
    const TorusPolynomial &tv = w.testVector(0);
    auto expectOk = [&](const LweCiphertext &ct, size_t i) {
        RequestSpec r;
        r.lut = 0;
        r.message = int64_t(i % space);
        ok = ok && w.check(r, {ct});
    };
    expectOk(ctx.bootstrap(cts[0], tv), 0);
    const double single_us =
        medianUs([&] { g_sink = ctx.bootstrap(cts[0], tv).b(); }, 7);
    {
        const std::vector<LweCiphertext> res =
            ctx.bootstrapBatch(cts.data(), target, tv);
        for (size_t i = 0; i < res.size(); ++i)
            expectOk(res[i], i);
    }
    const double batch_us = medianUs(
        [&] { g_sink = ctx.bootstrapBatch(cts.data(), target, tv)[0].b(); },
        5);
    const BatchExecutor::Stats &e0 = run.at_start.exec, &e1 = run.at_end.exec;
    const uint64_t sweeps = e1.sweeps - e0.sweeps;
    const double mean_width = ratio(e1.swept_lwes - e0.swept_lwes, sweeps);
    const size_t width = std::clamp<size_t>(size_t(std::lround(mean_width)),
                                            1, target);
    const double width_us =
        width == target
            ? batch_us
            : medianUs(
                  [&] {
                      g_sink =
                          ctx.bootstrapBatch(cts.data(), width, tv)[0].b();
                  },
                  5);
    add("sweep.single_ms", single_us * 1e-3, "ms");
    add("sweep.batch_ms", batch_us * 1e-3, "ms");
    add("sweep.width_ms", width_us * 1e-3, "ms");
    add("sweep.pbs_per_s", double(target) * 1e6 / batch_us, "1/s");

    // -- pbs / poly: single-thread stage timings -----------------------
    const BootstrappingKey &bsk = ctx.bsk();
    PbsScratch scratch;
    GlweCiphertext acc;
    const double br_us = medianUs(
        [&] {
            acc = GlweCiphertext::trivial(p.k, tv);
            blindRotate(acc, cts[0], bsk, scratch);
        },
        5);
    LweCiphertext extracted;
    const double se_us =
        medianUs([&] { extracted = sampleExtract(acc); }, 9, 200);
    LweCiphertext switched;
    const double ks_us =
        medianUs([&] { switched = keySwitch(extracted, ctx.ksk()); }, 5);
    expectOk(switched, 0);
    const ModSwitch ms(p.N);
    const double mod_us = medianUs(
        [&] {
            uint64_t s = 0;
            for (Torus32 a : cts[0].raw())
                s += ms(a);
            g_sink = s;
        },
        9, 1000);
    const GgswFft &ggsw = bsk.bit(0);
    GlweCiphertext rot = acc;
    uint32_t power = 0;
    const double cmux_us = medianUs(
        [&] {
            power = (power + 7) % (2 * p.N);
            ggsw.cmuxRotate(rot, power, scratch);
        },
        9, 20);
    const GadgetParams &g = ggsw.gadget();
    const size_t rows = size_t(p.k + 1) * g.levels;
    std::vector<int32_t> digits(rows * p.N);
    const double dec_us = medianUs(
        [&] {
            for (uint32_t c = 0; c <= p.k; ++c)
                gadgetDecomposePolyInto(digits.data() + c * g.levels * p.N,
                                        acc.poly(c), g);
        },
        9, 100);
    const NegacyclicFft &fft = NegacyclicFft::get(p.N);
    std::vector<Cplx> freq(rows * p.N / 2);
    const double fft_us = medianUs(
        [&] { fft.forwardBatch(freq.data(), digits.data(), rows); }, 9, 50);
    const FreqPolynomial one(freq.begin(), freq.begin() + p.N / 2);
    TorusPolynomial back(p.N);
    const double ifft_us =
        medianUs([&] { fft.inverse(back, one); }, 9, 200);
    add("pbs.blind_rotate_ms", br_us * 1e-3, "ms");
    add("pbs.keyswitch_ms", ks_us * 1e-3, "ms");
    add("pbs.sample_extract_us", se_us, "us");
    add("pbs.modswitch_us", mod_us, "us");
    add("pbs.cmux_us", cmux_us, "us");
    add("pbs.decompose_us", dec_us, "us");
    add("poly.fft_batch_us", fft_us, "us");
    add("poly.ifft_us", ifft_us, "us");

    // -- exec: executor counters across the window ---------------------
    add("exec.sweeps", double(sweeps), "count");
    add("exec.mean_width", mean_width, "count");
    add("exec.occupancy", mean_width / double(target), "frac");
    add("exec.deadline_flush_frac",
        ratio(e1.deadline_flushes - e0.deadline_flushes, sweeps), "frac");
    add("exec.shards", double(e1.shards), "count");

    // -- net / server: framing and payload codec on recorded frames ---
    add("net.req_bytes", ratio(run.req_frame_bytes, run.req_frames), "B");
    add("net.reply_bytes", ratio(run.reply_frame_bytes, run.reply_frames),
        "B");
    {
        StrixClient side;
        std::vector<double> rtt;
        if (side.connectLoopback(w.server().port())) {
            for (int i = 0; i < 200; ++i) {
                const auto t0 = Clock::now();
                if (!side.ping())
                    break;
                rtt.push_back(std::chrono::duration<double, std::micro>(
                                  Clock::now() - t0)
                                  .count());
            }
        }
        ok = ok && rtt.size() == 200;
        add("net.ping_rtt_us", median(rtt), "us");
    }
    std::vector<WireMessage> msgs;
    std::vector<std::vector<LweCiphertext>> replies;
    for (const Recorded &r : run.recorded) {
        FrameDecoder d;
        d.feed(r.frame.data(), r.frame.size());
        WireMessage m;
        if (d.next(m))
            msgs.push_back(std::move(m));
        if (!r.reply_payload.empty())
            replies.push_back(decodeCiphertexts(r.reply_payload));
    }
    const double n_frames = double(std::max<size_t>(1, run.recorded.size()));
    const double frame_us = medianUs(
        [&] {
            for (const Recorded &r : run.recorded) {
                FrameDecoder d;
                d.feed(r.frame.data(), r.frame.size());
                WireMessage m;
                g_sink = d.next(m);
            }
        },
        15);
    add("net.frame_decode_us", frame_us / n_frames, "us");
    const double payload_us = medianUs(
        [&] {
            for (const WireMessage &m : msgs) {
                if (m.type == MsgType::Bootstrap)
                    g_sink = decodeBootstrapPayload(m.payload).ct.b();
                else if (m.type == MsgType::ApplyLut)
                    g_sink = decodeApplyLutPayload(m.payload).ct.b();
                else
                    g_sink = decodeCircuitPayload(m.payload).inputs.size();
            }
        },
        15);
    add("server.payload_decode_us",
        payload_us / double(std::max<size_t>(1, msgs.size())), "us");
    const double encode_us = medianUs(
        [&] {
            for (const std::vector<LweCiphertext> &r : replies)
                g_sink = encodeCiphertexts(r).size();
        },
        15);
    add("server.reply_encode_us",
        encode_us / double(std::max<size_t>(1, replies.size())), "us");
    const StrixServer::Stats &s0 = run.at_start.server,
                             &s1 = run.at_end.server;
    add("server.busy_rejects", double(s1.busy_rejects - s0.busy_rejects),
        "count");
    add("server.deadline_misses",
        double(s1.deadline_misses - s0.deadline_misses), "count");
    add("server.error_replies", double(s1.error_replies - s0.error_replies),
        "count");

    // -- keycache / serialize ------------------------------------------
    const CacheStats &c0 = run.at_start.cache, &c1 = run.at_end.cache;
    add("keycache.hits", double(c1.hits - c0.hits), "count");
    add("keycache.inserts", double(c1.inserts - c0.inserts), "count");
    add("keycache.evictions", double(c1.evictions - c0.evictions), "count");
    add("keycache.resident_mb", double(c1.resident_bytes) / kMiB, "MiB");
    add("client.reregistrations", double(run.reregistrations), "count");
    const std::vector<uint8_t> &evk = w.evkPayload(0);
    add("serialize.evk_bytes", double(evk.size()), "B");
    const double enc_us = medianUs(
        [&] {
            g_sink = encodeEvalKeysPayload(*keys.evalKeys(),
                                           EvalKeysFormat::Seeded)
                         .size();
        },
        3);
    const double dec_evk_us = medianUs(
        [&] { g_sink = decodeEvalKeysPayload(evk)->params().n; }, 3);
    add("serialize.evk_encode_ms", enc_us * 1e-3, "ms");
    add("serialize.evk_decode_ms", dec_evk_us * 1e-3, "ms");

    // -- circuit: analysis and the uncontended planned evaluation -----
    const Circuit circuit =
        w.circuit().numNodes() > 0 ? w.circuit() : buildAdder(4);
    CircuitPlan plan;
    const double analyze_us =
        medianUs([&] { plan = analyzeCircuit(circuit, p); }, 15);
    add("circuit.analyze_us", analyze_us, "us");
    add("circuit.plan_pbs", double(plan.pbsCount()), "count");
    add("circuit.plan_depth", double(plan.depth()), "count");
    std::vector<bool> bits(circuit.numInputs());
    std::vector<LweCiphertext> inputs;
    for (size_t i = 0; i < bits.size(); ++i) {
        bits[i] = (rng.next64() & 1) != 0;
        inputs.push_back(keys.encryptBit(bits[i], rng));
    }
    std::vector<LweCiphertext> outs;
    const double eval_us = medianUs(
        [&] { outs = circuit.evalEncrypted(ctx, inputs, plan); }, 3);
    const std::vector<bool> want = circuit.evalPlain(bits);
    ok = ok && outs.size() == want.size();
    for (size_t i = 0; ok && i < want.size(); ++i)
        ok = keys.decryptBit(outs[i]) == want[i];
    add("circuit.eval_ms", eval_us * 1e-3, "ms");

    // -- loadgen: the generator's own health ---------------------------
    add("loadgen.sent", double(run.sent), "count");
    add("loadgen.late_p99_ms",
        percentile(run.ledger.latenessMs(), 0.99).value, "ms");
    return ok;
}

} // namespace perfbench

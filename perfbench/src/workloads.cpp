#include "workloads.h"

#include <chrono>
#include <stdexcept>

#include "net/client.h"
#include "server/wire_codec.h"
#include "tfhe/bootstrap.h"

namespace perfbench {

using namespace strix;

namespace {

/** Message space of the PBS requests (set I needs <= 16). */
constexpr uint64_t kMsgSpace = 8;
/** Distinct LUTs the PBS requests pick from. */
constexpr uint32_t kLuts = 8;

std::vector<WorkloadSpec>
makeSpecs()
{
    std::vector<WorkloadSpec> out;

    // Closed loop, one tenant, 4 pipelined connections x 8 outstanding
    // = 32 in flight: two full target_batch (16) sweeps queued, and
    // exactly the default per-tenant in-flight cap, so nothing is
    // refused. Nearly all server time is bootstrapBatch.
    WorkloadSpec sat;
    sat.name = "setI_saturate";
    sat.params = paramsSetI();
    sat.mix.luts = kLuts;
    sat.mix.msg_space = kMsgSpace;
    sat.conns = 4;
    sat.window = 8;
    sat.slices = 4;
    out.push_back(sat);

    // Open loop on the toy set, well below saturation (the executor
    // starts refusing near 1500 req/s; at 500 the tail already swung
    // with host speed). Zipf-skewed tenants outnumber what the key
    // cache holds, so tail tenants are evicted and re-register at a
    // steady ~13/s. Mostly Bootstrap, some ApplyLut.
    WorkloadSpec toy;
    toy.name = "toy_tenants_open";
    toy.params = testParams(48, 512);
    toy.tenants = 12;
    toy.budget_bundles = 10.5;
    toy.mix.open_loop = true;
    toy.mix.rate_per_s = 300;
    toy.mix.tenant_weights = zipfWeights(toy.tenants, 1.4);
    toy.mix.lut_share = 0.2;
    toy.mix.luts = kLuts;
    toy.mix.msg_space = kMsgSpace;
    toy.conns = 4;
    toy.slices = 5;
    out.push_back(toy);

    // Closed loop, 4 connections each with one ripple-carry adder in
    // flight: the planned-circuit path and dependency-bound sweeps.
    // Too few samples in a run for p99 (about 270), so the tail is p90
    // over the whole window.
    WorkloadSpec circ;
    circ.name = "setI_circuits";
    circ.params = paramsSetI();
    circ.adder_bits = 4;
    circ.mix.circuit = true;
    circ.mix.circuit_inputs = 2 * circ.adder_bits;
    circ.conns = 4;
    circ.window = 1;
    circ.tail_q = 0.90;
    out.push_back(circ);
    return out;
}

const std::vector<WorkloadSpec> &
specs()
{
    static const std::vector<WorkloadSpec> s = makeSpecs();
    return s;
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &s : specs())
        if (s.name == name)
            return &s;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const WorkloadSpec &s : specs())
        out.push_back(s.name);
    return out;
}

Workload::Workload(const WorkloadSpec &spec, uint64_t seed)
    : spec_(spec), seed_(seed), noise_(Rng(seed).fork(0xE1C0))
{
    for (uint32_t j = 0; j < spec_.mix.luts; ++j) {
        std::vector<int64_t> table(spec_.mix.msg_space);
        for (uint64_t x = 0; x < table.size(); ++x)
            table[x] = int64_t((x * (2 * j + 1) + j) % table.size());
        tvs_.push_back(makeIntTestVector(
            spec_.params.N, spec_.mix.msg_space,
            [&table](int64_t v) { return table[size_t(v)]; }));
        tables_.push_back(std::move(table));
    }
    if (spec_.adder_bits > 0)
        circuit_ = buildAdder(spec_.adder_bits);

    if (spec_.budget_bundles > 0) {
        // Size the budget in bundles of this parameter set: register
        // one bundle on a scratch server and read its resident bytes.
        StrixServer probe;
        ClientKeyset keys(spec_.params, keySeed(0));
        StrixClient c;
        if (!probe.start() || !c.connectLoopback(probe.port()) ||
            !c.call(MsgType::RegisterTenant, 1,
                    encodeEvalKeysPayload(*keys.evalKeys(),
                                          EvalKeysFormat::Seeded))
                 .ok)
            throw std::runtime_error("budget probe failed");
        const uint64_t bundle = probe.cacheStats().resident_bytes;
        opts_.cache_budget_bytes =
            uint64_t(spec_.budget_bundles * double(bundle));
        c.close();
        probe.stop();
    }
}

Workload::~Workload()
{
    teardown();
}

void
Workload::teardown()
{
    if (server_)
        server_->stop();
    server_.reset();
    tenants_.clear();
}

uint64_t
Workload::keySeed(uint32_t t) const
{
    return Rng(seed_).fork(0x4B45590000ull + t).next64();
}

double
Workload::setupOnce()
{
    teardown();
    const auto t0 = std::chrono::steady_clock::now();
    server_ = std::make_unique<StrixServer>(opts_);
    if (!server_->start())
        throw std::runtime_error("server failed to start");
    tenants_.resize(spec_.tenants);
    for (uint32_t t = 0; t < tenants_.size(); ++t) {
        tenants_[t].keys =
            std::make_unique<ClientKeyset>(spec_.params, keySeed(t));
        tenants_[t].evk = encodeEvalKeysPayload(
            *tenants_[t].keys->evalKeys(), EvalKeysFormat::Seeded);
    }
    StrixClient admin;
    if (!admin.connectLoopback(server_->port()))
        throw std::runtime_error("cannot connect to the server");
    // Least popular first, so the cache ends up holding the most
    // popular tenants when the budget cannot hold them all.
    for (size_t i = tenants_.size(); i-- > 0;) {
        const StrixClient::Reply r =
            admin.call(MsgType::RegisterTenant, wireTenant(uint32_t(i)),
                       tenants_[i].evk);
        if (!r.ok)
            throw std::runtime_error("registration failed: " +
                                     r.error_text);
    }
    if (!admin.ping())
        throw std::runtime_error("ping failed");
    const double secs = secondsSince(t0);
    admin.close();
    return secs;
}

std::vector<LweCiphertext>
Workload::encrypt(const RequestSpec &r) const
{
    Rng rng = noise_.fork((uint64_t(r.stream) << 40) ^ r.index);
    const ClientKeyset &k = keys(r.tenant);
    std::vector<LweCiphertext> cts;
    if (r.kind == Kind::Circuit) {
        for (uint32_t i = 0; i < spec_.mix.circuit_inputs; ++i)
            cts.push_back(k.encryptBit(((r.operands >> i) & 1) != 0, rng));
    } else {
        cts.push_back(k.encryptInt(r.message, spec_.mix.msg_space, rng));
    }
    return cts;
}

MsgType
Workload::type(const RequestSpec &r) const
{
    switch (r.kind) {
    case Kind::Bootstrap:
        return MsgType::Bootstrap;
    case Kind::ApplyLut:
        return MsgType::ApplyLut;
    case Kind::Circuit:
        break;
    }
    return MsgType::EvalCircuit;
}

std::vector<uint8_t>
Workload::encode(const RequestSpec &r,
                 const std::vector<LweCiphertext> &cts) const
{
    switch (r.kind) {
    case Kind::Bootstrap:
        return encodeBootstrapPayload(cts.at(0), tvs_[r.lut]);
    case Kind::ApplyLut:
        return encodeApplyLutPayload(cts.at(0), spec_.mix.msg_space,
                                     tables_[r.lut]);
    case Kind::Circuit:
        break;
    }
    return encodeCircuitPayload(circuit_, cts);
}

bool
Workload::check(const RequestSpec &r,
                const std::vector<LweCiphertext> &out) const
{
    const ClientKeyset &k = keys(r.tenant);
    if (r.kind != Kind::Circuit)
        return out.size() == 1 &&
               k.decryptInt(out[0], spec_.mix.msg_space) ==
                   tables_[r.lut][size_t(r.message)];
    std::vector<bool> bits(spec_.mix.circuit_inputs);
    for (size_t i = 0; i < bits.size(); ++i)
        bits[i] = ((r.operands >> i) & 1) != 0;
    const std::vector<bool> want = circuit_.evalPlain(bits);
    if (out.size() != want.size())
        return false;
    for (size_t i = 0; i < want.size(); ++i)
        if (k.decryptBit(out[i]) != want[i])
            return false;
    return true;
}

} // namespace perfbench

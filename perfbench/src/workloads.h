/**
 * @file
 * The benchmark's workloads: their fixed shape, their keys and the
 * client-side steps of every request (encrypt, encode, check).
 *
 * A Workload owns the in-process StrixServer it drives (default
 * Options; only toy_tenants_open sets a key-cache budget) and one
 * ClientKeyset per tenant. Everything it sends is derived from the
 * run seed: key seeds, request streams and per-request encryption
 * noise.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <memory>
#include <string>
#include <vector>

#include "schedule.h"
#include "server/server.h"
#include "tfhe/client_keyset.h"
#include "workloads/circuit.h"

namespace perfbench {

/** Fixed shape of one workload (everything but the seed). */
struct WorkloadSpec
{
    std::string name;
    strix::TfheParams params;
    size_t tenants = 1;
    /** Key-cache budget in tenant bundles (0 = server default). */
    double budget_bundles = 0;
    Mix mix;
    size_t conns = 4;   //!< load connections (the generator's only ones)
    size_t window = 1;  //!< closed loop: requests outstanding per conn
    uint32_t adder_bits = 0; //!< circuit workloads: ripple-carry width
    /** Tail percentile reported as lat_tail_ms (p99 or p90). */
    double tail_q = 0.99;
    /**
     * Equal slices of the window. lat_p50_ms and lat_tail_ms are
     * medians over the slices, so a transient stall of the host moves
     * one slice rather than the run's figure; each slice must still
     * hold ten samples beyond the tail percentile.
     */
    int slices = 1;
};

/** The workload named @p name, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Names of every workload, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

class Workload
{
  public:
    Workload(const WorkloadSpec &spec, uint64_t seed);
    ~Workload();

    const WorkloadSpec &spec() const { return spec_; }
    uint64_t seed() const { return seed_; }

    /**
     * One timed set-up: start a fresh server, generate every tenant's
     * keys, EVK2-encode them, register them, and get a ping answered.
     * Tears down the previous server and keys first (untimed).
     * Returns the set-up time in seconds; throws on failure.
     */
    double setupOnce();

    strix::StrixServer &server() { return *server_; }

    size_t tenants() const { return tenants_.size(); }
    uint64_t wireTenant(uint32_t t) const { return uint64_t(t) + 1; }
    const strix::ClientKeyset &keys(uint32_t t) const
    {
        return *tenants_[t].keys;
    }
    const std::vector<uint8_t> &evkPayload(uint32_t t) const
    {
        return tenants_[t].evk;
    }

    // -- client steps of a request (between encode and check the load
    //    generator sends, waits and decodes the reply) ----------------
    std::vector<strix::LweCiphertext> encrypt(const RequestSpec &r) const;
    strix::MsgType type(const RequestSpec &r) const;
    std::vector<uint8_t>
    encode(const RequestSpec &r,
           const std::vector<strix::LweCiphertext> &cts) const;
    /** Decrypt @p out and compare with the plaintext expectation. */
    bool check(const RequestSpec &r,
               const std::vector<strix::LweCiphertext> &out) const;

    const strix::Circuit &circuit() const { return circuit_; }
    const strix::TorusPolynomial &testVector(uint32_t lut) const
    {
        return tvs_[lut];
    }

  private:
    /** Stop the server and drop every tenant's keys. */
    void teardown();

    struct Tenant
    {
        std::unique_ptr<strix::ClientKeyset> keys;
        std::vector<uint8_t> evk; //!< EVK2 RegisterTenant payload
    };

    uint64_t keySeed(uint32_t t) const;

    WorkloadSpec spec_;
    uint64_t seed_;
    strix::StrixServer::Options opts_;
    std::unique_ptr<strix::StrixServer> server_;
    std::vector<Tenant> tenants_;
    std::vector<std::vector<int64_t>> tables_; //!< LUT j over Z_msg
    std::vector<strix::TorusPolynomial> tvs_;  //!< their test vectors
    strix::Circuit circuit_;
    strix::Rng noise_; //!< root of the per-request encryption streams
};

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H

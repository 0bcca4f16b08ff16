/**
 * @file
 * Seeded request streams: everything a run sends is drawn here.
 *
 * A RequestStream turns (mix, seed, stream id) into a deterministic
 * sequence of RequestSpecs: tenant pick, request kind, plaintext, LUT
 * and circuit operands, and for an open loop the due time of each
 * arrival (see Mix::phases_us). An open-loop stream ends after the
 * last phase: next() then returns a spec with due_us = INT64_MAX.
 * The same seed gives the same sequence, so any run can be replayed;
 * the ciphertexts themselves are encrypted with a generator forked
 * from the seed and the request index (see workloads.cpp), so they
 * replay too.
 */

#ifndef PERFBENCH_SCHEDULE_H
#define PERFBENCH_SCHEDULE_H

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace perfbench {

enum class Kind : uint8_t
{
    Bootstrap, //!< raw PBS against a shipped test vector
    ApplyLut,  //!< server-built test vector from a shipped table
    Circuit,   //!< EvalCircuit of the workload's netlist
};

/** One request as generated, before encryption. */
struct RequestSpec
{
    uint32_t stream = 0;   //!< stream (connection) it was drawn from
    uint64_t index = 0;    //!< position within its stream
    int64_t due_us = 0;    //!< open loop: due time, window-relative
    uint32_t tenant = 0;   //!< index into the workload's tenants
    Kind kind = Kind::Bootstrap;
    uint32_t lut = 0;      //!< which of the workload's LUTs
    int64_t message = 0;   //!< plaintext in [0, msg_space)
    uint64_t operands = 0; //!< circuit input bits, input i = bit i

    bool operator==(const RequestSpec &o) const;
};

/** What a workload's streams draw from. */
struct Mix
{
    bool open_loop = false;
    double rate_per_s = 0;   //!< open loop: arrival rate
    /**
     * Open loop: phase boundaries (warm-up start, window start, window
     * end). Each phase gets exactly round(rate * length) arrivals at
     * uniformly random times -- a Poisson process conditioned on its
     * count, so the offered load of a phase does not vary by seed.
     */
    std::vector<int64_t> phases_us;
    std::vector<double> tenant_weights{1.0}; //!< popularity
    double lut_share = 0;    //!< share of ApplyLut among PBS requests
    bool circuit = false;    //!< every request is an EvalCircuit
    uint32_t circuit_inputs = 0;
    uint32_t luts = 1;
    uint64_t msg_space = 8;
};

/** Zipf popularity weights 1/rank^s for @p n tenants. */
std::vector<double> zipfWeights(size_t n, double s);

class RequestStream
{
  public:
    RequestStream(const Mix &mix, uint64_t seed, uint32_t stream);

    RequestSpec next();

  private:
    Mix mix_;
    strix::Rng rng_;
    uint32_t stream_;
    uint64_t index_ = 0;
    std::vector<double> cdf_;
    size_t phase_ = 0;          //!< open loop: next phase to draw
    std::vector<int64_t> due_;  //!< due times of the current phase
    size_t due_next_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SCHEDULE_H

/**
 * @file
 * The load generator: one thread, at most Workload::spec().conns
 * loopback connections, non-blocking sockets under ppoll.
 *
 * Closed loop: each connection keeps `window` requests outstanding and
 * issues the next from its own seeded stream when a reply arrives.
 * Open loop: one seeded stream of Poisson arrivals; a request is
 * issued when due, whatever is outstanding -- sends never wait on a
 * receive, and large frames drain through per-connection buffers.
 *
 * An UnknownTenant reply (the tenant's bundle was evicted) parks the
 * request and re-registers the tenant, with at most one registration
 * in flight per tenant; parked requests go out again once it is
 * answered. Every Ok reply is decoded and decrypt-checked.
 *
 * The run has three phases on one clock: warm-up (negative times),
 * the measured window [0, window), and a bounded drain in which
 * nothing new is issued. Server counters are snapshotted at the
 * window's two edges.
 */

#ifndef PERFBENCH_LOADGEN_H
#define PERFBENCH_LOADGEN_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ledger.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/** Server counters at one instant. */
struct Snapshot
{
    strix::StrixServer::Stats server;
    strix::BatchExecutor::Stats exec;
    strix::CacheStats cache;
};

/** One request frame kept for the post-window layer replays. */
struct Recorded
{
    RequestSpec spec;
    std::vector<uint8_t> frame;         //!< the MSG1 request frame
    std::vector<uint8_t> reply_payload; //!< its Ok reply payload
};

struct RunResult
{
    Ledger ledger;
    uint64_t sent = 0;            //!< frames written (incl. resends)
    uint64_t issued = 0;          //!< requests issued
    uint64_t reregistrations = 0;
    uint64_t mismatches = 0;      //!< decoded, but decrypted wrong
    std::map<std::string, uint64_t> failures; //!< by cause
    uint64_t req_frame_bytes = 0;   //!< compute request frames sent
    uint64_t req_frames = 0;
    uint64_t reply_frame_bytes = 0; //!< compute reply frames received
    uint64_t reply_frames = 0;
    Snapshot at_start, at_end;
    std::vector<Recorded> recorded;
};

/**
 * Drive @p w's server for warm-up + @p window_us + drain. Returns
 * false (with a message on stderr) if a connection fails.
 */
bool runLoad(Workload &w, Tracer &tracer, int64_t window_us,
             RunResult &out);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_H

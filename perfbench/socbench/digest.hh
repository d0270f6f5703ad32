/**
 * @file
 * Digests of the simulators' outputs.  Every simulation-state field
 * of a result is fed, in declaration order, into a 64-bit FNV-1a
 * hash (doubles by bit pattern); the host-time timers genSeconds,
 * simSeconds and hierSeconds are left out.  Two runs of one config
 * agree on the digest exactly when they agree on every simulated
 * output, whatever their thread count or stream window.
 */

#ifndef SOCBENCH_DIGEST_HH
#define SOCBENCH_DIGEST_HH

#include <cstdint>
#include <optional>
#include <string>

#include "cluster/service_sim.hh"
#include "cluster/trace_sim.hh"

namespace socbench
{

std::uint64_t digest(const soc::cluster::TraceSimResult &r);
std::uint64_t digest(const soc::cluster::ServiceSimResult &r);

/** 16 lowercase hex digits. */
std::string hex(std::uint64_t value);

/** The pinned digest of @p workload at @p seed, if one is pinned. */
std::optional<std::uint64_t> pinnedDigest(const std::string &workload,
                                          std::uint64_t seed);

} // namespace socbench

#endif // SOCBENCH_DIGEST_HH

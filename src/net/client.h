// Live H2 clients: a blocking fetch helper and the h2pushload load core.
//
// Both reuse the repo's h2::Connection codec — the load generator speaks
// exactly the protocol the simulator's browser does, so a live run is a
// differential test of the codec against itself across a real kernel
// socket, not just a throughput number.
//
// fetch_urls(): open one connection, request every URL, collect bodies
// (including pushed ones) — the loopback byte-equality oracle.
//
// run_load(): h2load-style closed-loop generator. N connections across M
// event-loop threads, each keeping `max_concurrent_streams` requests in
// flight from a round-robin URL mix until the deadline; reports
// requests/sec, connections/sec, and per-stream latency samples for
// histogram rendering via src/stats/.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/expected.h"

namespace h2push::net {

struct FetchedResponse {
  int status = 0;
  std::string body;
  bool pushed = false;  ///< arrived via PUSH_PROMISE, not a request
};

struct FetchOptions {
  bool enable_push = true;
};

/// Fetch every (host, path) over one H2 connection to addr:port, at most
/// 32 requests in flight; waits for all responses and all promised pushes,
/// for up to 30 s. Keyed by (host, path).
util::Expected<std::map<std::pair<std::string, std::string>, FetchedResponse>,
               std::string>
fetch_urls(const std::string& addr, std::uint16_t port,
           const std::vector<std::pair<std::string, std::string>>& urls,
           const FetchOptions& options = {});

struct LoadConfig {
  std::string addr = "127.0.0.1";
  std::uint16_t port = 0;
  int connections = 4;
  int threads = 1;
  int max_concurrent_streams = 8;
  double duration_s = 2.0;
  bool enable_push = false;
  /// Request mix, round-robin. Must outlive the call.
  const std::vector<std::pair<std::string, std::string>>* urls = nullptr;
};

struct LoadResult {
  std::uint64_t requests_ok = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t connections_opened = 0;
  std::uint64_t connection_errors = 0;
  std::uint64_t push_promises = 0;
  std::uint64_t bytes_read = 0;
  double elapsed_s = 0;
  /// Per completed request, sampled: the first 2^20 per worker.
  std::vector<double> latency_ms;

  double requests_per_sec() const noexcept {
    return elapsed_s > 0 ? static_cast<double>(requests_ok) / elapsed_s : 0;
  }
  double connections_per_sec() const noexcept {
    return elapsed_s > 0 ? static_cast<double>(connections_opened) / elapsed_s
                         : 0;
  }
};

LoadResult run_load(const LoadConfig& config);

}  // namespace h2push::net

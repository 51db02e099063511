// Shared pieces of the benchmark driver: options, the result every workload
// fills, and the timing helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "replay/record.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;  ///< report per-layer metrics instead of end-to-end
  // Open-loop client only: the daemon to load, and the identity of the
  // corpus it serves, which the client rebuilds. All are required.
  std::uint16_t port = 0;
  int server_pid = 0;  ///< the daemon whose CPU time is charged
  std::uint64_t corpus_seed = 0;
  std::string profile;
  int sites = 0;
};

/// What one workload run reports: its outcome counts, any failed checks and
/// its metrics by name. main() prints it as the last line of stdout.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failed checks
  std::map<std::string, double> metrics;

  std::uint64_t failed_checks = 0;

  /// Record a failed check (the run is then reported incorrect).
  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (errors.size() < 8) errors.push_back(what);
    ++failed_checks;
  }
};

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU seconds consumed by this process (all threads).
inline double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Median of `samples`; 0 when empty.
double median_of(const std::vector<double>& samples);

/// The end-to-end timing of a run, all figures over the whole timed part:
/// p50_ms and p90_ms over every timed operation, and cpu_us_per_op, the CPU
/// charged between begin() and end() divided by the operations timed. The
/// tail is p90, not p99: a run's p99 follows how many host stalls of a few
/// milliseconds it happens to catch. Over ten live runs of the same code on
/// a shared 4-vCPU VM the quartiles of p99 lay 29% of its median apart,
/// those of p50 15%.
class RunTimer {
 public:
  /// `cpu_clock` reads the CPU seconds to charge: this process's, or the
  /// daemon's under test.
  explicit RunTimer(std::function<double()> cpu_clock)
      : cpu_clock_(std::move(cpu_clock)) {}

  void begin() { cpu_begin_ = cpu_clock_(); }
  /// One timed operation took `ms`.
  void add(double ms) { latencies_ms_.push_back(ms); }
  void end() { cpu_end_ = cpu_clock_(); }
  void report(Result& result) const;

 private:
  std::function<double()> cpu_clock_;
  double cpu_begin_ = 0;
  double cpu_end_ = 0;
  std::vector<double> latencies_ms_;
};

/// Per-layer time probes: each calls one layer of the stack directly on the
/// workload's recorded exchanges and reports nanoseconds per unit of work.
/// They time a layer in isolation, not the share of the workload's own time
/// spent in it. A workload runs only the probes of the layers it uses: the
/// page-load simulator (event dispatch, TCP model, HPACK, framing, HTML and
/// CSS parsing), or the live serving path (HPACK, framing, replay lookup,
/// timer wheel).
void simulator_layer_probes(
    const std::vector<const h2push::replay::RecordStore*>& stores,
    Result& result);
void serving_layer_probes(const h2push::replay::RecordStore& store,
                          Result& result);

int run_sim(const Options& options, Result& result);
int run_open_loop(const Options& options, Result& result);

}  // namespace perfbench

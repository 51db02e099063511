// Cross-layer event tracing and metrics.
//
// A TraceRecorder collects typed, timestamped events from every layer of the
// stack — packet queues and TCP state in `sim/`, frames in `h2/`, scheduler
// decisions in `server/`, fetch/render lifecycles in `browser/` — onto named
// tracks (one per connection / link / browser). Timestamps are *simulated*
// time read through a clock callback, so a trace is exactly as deterministic
// as the run that produced it: same seed, same bytes out.
//
// The recorder is wired through the stack as a raw pointer that is null by
// default. Every instrumentation site is a single `if (trace_)` branch, so
// the disabled path costs one predictable-not-taken compare — the
// zero-overhead-when-disabled contract the benchmarks rely on.
//
// Exporters live in trace/chrome_trace.h: Chrome trace-event JSON (loadable
// in Perfetto / chrome://tracing) and a compact JSON per-run TraceSummary.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace h2push::trace {

/// Event phases, mirroring the Chrome trace-event phases they export to.
enum class Phase : std::uint8_t {
  kBegin,         // 'B' — duration slice opens on a track
  kEnd,           // 'E' — duration slice closes
  kInstant,       // 'i' — point event
  kCounter,       // 'C' — sampled numeric series
  kAsyncBegin,    // 'b' — async span opens (id-matched)
  kAsyncInstant,  // 'n' — point event inside an async span
  kAsyncEnd,      // 'e' — async span closes
};

/// Small typed argument value (int, double, or string).
struct ArgValue {
  enum class Kind : std::uint8_t { kInt, kDouble, kString } kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0;
  std::string s;

  ArgValue(int v) : i(v) {}  // NOLINT(google-explicit-constructor)
  ArgValue(long v) : i(v) {}                  // NOLINT
  ArgValue(long long v) : i(v) {}             // NOLINT
  ArgValue(unsigned v) : i(v) {}              // NOLINT
  ArgValue(unsigned long v) : i(static_cast<std::int64_t>(v)) {}       // NOLINT
  ArgValue(unsigned long long v) : i(static_cast<std::int64_t>(v)) {}  // NOLINT
  ArgValue(double v) : kind(Kind::kDouble), d(v) {}                    // NOLINT
  ArgValue(std::string v) : kind(Kind::kString), s(std::move(v)) {}    // NOLINT
  ArgValue(const char* v) : kind(Kind::kString), s(v) {}               // NOLINT
};

using Args = std::vector<std::pair<std::string, ArgValue>>;

struct Event {
  Phase phase = Phase::kInstant;
  sim::Time ts = 0;             ///< simulated time (nanoseconds)
  std::uint32_t track = 0;      ///< registered track id
  const char* category = "";    ///< static string: "sim", "h2", ...
  std::string name;
  double value = 0;             ///< counter phase only
  std::uint64_t async_id = 0;   ///< async phases only
  Args args;
};

/// Per-run roll-up of the counters the paper's analysis needs; filled live
/// by the instrumentation hooks and finalized by the testbed after the run.
struct TraceSummary {
  // Client-observed H2 DATA bytes (same accounting as PageLoadResult).
  std::uint64_t bytes_pushed = 0;
  std::uint64_t bytes_total = 0;
  /// Pushed DATA bytes that arrived before any consumer asked for the
  /// resource — the "won" bytes that fill server-side think/idle time.
  std::uint64_t bytes_pushed_before_request = 0;

  // Protocol-level counts.
  std::uint64_t push_promises = 0;
  std::uint64_t pushes_cancelled = 0;
  std::map<std::string, std::uint64_t> frames_sent;      // by frame type
  std::map<std::string, std::uint64_t> frames_received;  // by frame type

  // Transport-level counts.
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t retransmissions = 0;

  // Access-link utilization over the run (finalized post-run): idle time on
  // the downlink is exactly the resource Server Push tries to fill (§4.3).
  sim::Time run_span = 0;
  sim::Time downlink_busy = 0;
  sim::Time downlink_idle = 0;
  sim::Time uplink_busy = 0;
  sim::Time uplink_idle = 0;

  /// Free-form named counters for anything the typed fields don't cover.
  std::map<std::string, double> extra;
};

class TraceRecorder {
 public:
  using Clock = std::function<sim::Time()>;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The testbed points this at the simulator clock before the run.
  void set_clock(Clock clock) { clock_ = std::move(clock); }
  sim::Time now() const { return clock_ ? clock_() : 0; }

  /// Register a named track (a Perfetto "thread"). Ids are sequential from
  /// 1, so registration order — which is deterministic — is display order.
  std::uint32_t register_track(std::string name) {
    track_names_.push_back(std::move(name));
    return static_cast<std::uint32_t>(track_names_.size());
  }
  const std::vector<std::string>& tracks() const { return track_names_; }

  // --- emission (stamped with the current simulated time) ---
  void begin(std::uint32_t track, const char* category, std::string name,
             Args args = {}) {
    push({Phase::kBegin, now(), track, category, std::move(name), 0, 0,
          std::move(args)});
  }
  void end(std::uint32_t track, const char* category, std::string name) {
    push({Phase::kEnd, now(), track, category, std::move(name), 0, 0, {}});
  }
  void instant(std::uint32_t track, const char* category, std::string name,
               Args args = {}) {
    push({Phase::kInstant, now(), track, category, std::move(name), 0, 0,
          std::move(args)});
  }
  void counter(std::uint32_t track, const char* category, std::string name,
               double value) {
    push({Phase::kCounter, now(), track, category, std::move(name), value, 0,
          {}});
  }
  void async_begin(std::uint32_t track, const char* category,
                   std::string name, std::uint64_t id, Args args = {}) {
    push({Phase::kAsyncBegin, now(), track, category, std::move(name), 0, id,
          std::move(args)});
  }
  void async_instant(std::uint32_t track, const char* category,
                     std::string name, std::uint64_t id, Args args = {}) {
    push({Phase::kAsyncInstant, now(), track, category, std::move(name), 0,
          id, std::move(args)});
  }
  void async_end(std::uint32_t track, const char* category, std::string name,
                 std::uint64_t id, Args args = {}) {
    push({Phase::kAsyncEnd, now(), track, category, std::move(name), 0, id,
          std::move(args)});
  }

  /// Explicit-timestamp variant for marks derived after the run (PLT,
  /// SpeedIndex, connectEnd). The exporter orders events by timestamp, so
  /// late emission keeps tracks monotonic.
  void instant_at(sim::Time ts, std::uint32_t track, const char* category,
                  std::string name, Args args = {}) {
    push({Phase::kInstant, ts, track, category, std::move(name), 0, 0,
          std::move(args)});
  }
  /// Explicit-timestamp counter, for state the simulator settles after the
  /// fact (a link queue's departures).
  void counter_at(sim::Time ts, std::uint32_t track, const char* category,
                  std::string name, double value) {
    push({Phase::kCounter, ts, track, category, std::move(name), value, 0,
          {}});
  }

  const std::vector<Event>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }

  TraceSummary& summary() { return summary_; }
  const TraceSummary& summary() const { return summary_; }

 private:
  void push(Event event) { events_.push_back(std::move(event)); }

  Clock clock_;
  std::vector<std::string> track_names_;
  std::vector<Event> events_;
  TraceSummary summary_;
};

}  // namespace h2push::trace

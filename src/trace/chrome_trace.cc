#include "trace/chrome_trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <numeric>

namespace h2push::trace {
namespace {

void append_escaped(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double v) {
  char buf[64];
  // %.3f keeps microsecond values exact to the nanosecond and makes the
  // output reproducible across runs (no shortest-round-trip variance).
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  out += buf;
}

void append_args(std::string& out, const Args& args) {
  out += "{";
  bool first = true;
  for (const auto& [key, value] : args) {
    if (!first) out += ",";
    first = false;
    append_escaped(out, key);
    out += ":";
    switch (value.kind) {
      case ArgValue::Kind::kInt: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRId64, value.i);
        out += buf;
        break;
      }
      case ArgValue::Kind::kDouble:
        append_double(out, value.d);
        break;
      case ArgValue::Kind::kString:
        append_escaped(out, value.s);
        break;
    }
  }
  out += "}";
}

char phase_char(Phase phase) {
  switch (phase) {
    case Phase::kBegin: return 'B';
    case Phase::kEnd: return 'E';
    case Phase::kInstant: return 'i';
    case Phase::kCounter: return 'C';
    case Phase::kAsyncBegin: return 'b';
    case Phase::kAsyncInstant: return 'n';
    case Phase::kAsyncEnd: return 'e';
  }
  return 'i';
}

double to_us(sim::Time t) {
  return static_cast<double>(t) / static_cast<double>(sim::kMicrosecond);
}

}  // namespace

std::string to_chrome_trace_json(const TraceRecorder& recorder) {
  std::string out;
  out.reserve(256 + recorder.size() * 96);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

  // Metadata: one process, one named thread per track, ordered by id.
  out += "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"h2push testbed\"}}";
  const auto& tracks = recorder.tracks();
  for (std::size_t i = 0; i < tracks.size(); ++i) {
    const auto tid = i + 1;
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_escaped(out, tracks[i]);
    out += "}}";
    out += ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":" + std::to_string(tid) +
           ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" +
           std::to_string(tid) + "}}";
  }

  // Stable order by (ts, emission sequence): marks emitted after the run
  // with earlier timestamps sort back into place, keeping tracks monotonic.
  const auto& events = recorder.events();
  std::vector<std::size_t> order(events.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&events](std::size_t a, std::size_t b) {
                     return events[a].ts < events[b].ts;
                   });

  for (const std::size_t index : order) {
    const Event& ev = events[index];
    out += ",\n{\"ph\":\"";
    out += phase_char(ev.phase);
    out += "\",\"ts\":";
    append_double(out, to_us(ev.ts));
    out += ",\"pid\":1,\"tid\":" + std::to_string(ev.track);
    out += ",\"cat\":";
    append_escaped(out, ev.category);
    out += ",\"name\":";
    append_escaped(out, ev.name);
    switch (ev.phase) {
      case Phase::kCounter:
        out += ",\"args\":{\"value\":";
        append_double(out, ev.value);
        out += "}";
        break;
      case Phase::kAsyncBegin:
      case Phase::kAsyncInstant:
      case Phase::kAsyncEnd: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%" PRIu64, ev.async_id);
        out += ",\"id\":\"";
        out += buf;
        out += "\"";
        if (!ev.args.empty()) {
          out += ",\"args\":";
          append_args(out, ev.args);
        }
        break;
      }
      case Phase::kInstant:
        out += ",\"s\":\"t\"";
        [[fallthrough]];
      default:
        if (!ev.args.empty()) {
          out += ",\"args\":";
          append_args(out, ev.args);
        }
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

namespace {

void append_counter_map(std::string& out, const char* key,
                        const std::map<std::string, std::uint64_t>& map) {
  out += "\"";
  out += key;
  out += "\":{";
  bool first = true;
  for (const auto& [name, count] : map) {
    if (!first) out += ",";
    first = false;
    append_escaped(out, name);
    out += ':';
    out += std::to_string(count);
  }
  out += "}";
}

}  // namespace

std::string summary_to_json(const TraceSummary& s) {
  std::string out = "{";
  out += "\"bytes_pushed\":" + std::to_string(s.bytes_pushed);
  out += ",\"bytes_total\":" + std::to_string(s.bytes_total);
  out += ",\"bytes_pushed_before_request\":" +
         std::to_string(s.bytes_pushed_before_request);
  out += ",\"push_promises\":" + std::to_string(s.push_promises);
  out += ",\"pushes_cancelled\":" + std::to_string(s.pushes_cancelled);
  out += ",\"packets_delivered\":" + std::to_string(s.packets_delivered);
  out += ",\"packets_dropped\":" + std::to_string(s.packets_dropped);
  out += ",\"retransmissions\":" + std::to_string(s.retransmissions);
  out += ",\"run_span_ms\":";
  append_double(out, sim::to_ms(s.run_span));
  out += ",\"downlink_busy_ms\":";
  append_double(out, sim::to_ms(s.downlink_busy));
  out += ",\"downlink_idle_ms\":";
  append_double(out, sim::to_ms(s.downlink_idle));
  out += ",\"uplink_busy_ms\":";
  append_double(out, sim::to_ms(s.uplink_busy));
  out += ",\"uplink_idle_ms\":";
  append_double(out, sim::to_ms(s.uplink_idle));
  out += ",";
  append_counter_map(out, "frames_sent", s.frames_sent);
  out += ",";
  append_counter_map(out, "frames_received", s.frames_received);
  out += ",\"extra\":{";
  bool first = true;
  for (const auto& [name, value] : s.extra) {
    if (!first) out += ",";
    first = false;
    append_escaped(out, name);
    out += ":";
    append_double(out, value);
  }
  out += "}}";
  return out;
}

std::string summary_to_text(const TraceSummary& s) {
  char buf[512];
  std::string out;
  std::snprintf(buf, sizeof(buf),
                "  pushed %.1f KB (%.1f KB before request) of %.1f KB total; "
                "%" PRIu64 " promises, %" PRIu64 " cancelled\n",
                static_cast<double>(s.bytes_pushed) / 1024.0,
                static_cast<double>(s.bytes_pushed_before_request) / 1024.0,
                static_cast<double>(s.bytes_total) / 1024.0, s.push_promises,
                s.pushes_cancelled);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  packets %" PRIu64 " delivered / %" PRIu64 " dropped; "
                "%" PRIu64 " retransmissions\n",
                s.packets_delivered, s.packets_dropped, s.retransmissions);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  downlink busy %.1f ms / idle %.1f ms over %.1f ms "
                "(uplink busy %.1f ms)\n",
                sim::to_ms(s.downlink_busy), sim::to_ms(s.downlink_idle),
                sim::to_ms(s.run_span), sim::to_ms(s.uplink_busy));
  out += buf;
  out += "  frames sent:";
  for (const auto& [name, count] : s.frames_sent) {
    out += " " + name + "=" + std::to_string(count);
  }
  out += "\n";
  return out;
}

}  // namespace h2push::trace

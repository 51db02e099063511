#include "core/waterfall.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

#include "trace/trace.h"

namespace h2push::core {

std::string render_waterfall(const browser::PageLoadResult& result,
                             const WaterfallOptions& options) {
  std::string out;
  if (result.resources.empty()) return "  (no resources)\n";

  double t_max = result.plt_ms;
  for (const auto& r : result.resources) {
    t_max = std::max(t_max, r.t_complete_ms);
  }
  if (t_max <= 0) t_max = 1;
  const double scale = static_cast<double>(kWaterfallWidth) / t_max;
  const auto col = [&](double t) {
    return std::clamp(static_cast<int>(std::lround(t * scale)), 0,
                      kWaterfallWidth);
  };

  char line[512];
  std::snprintf(line, sizeof(line),
                "  %-34s %9s %9s %8s  0%*sms %.0f\n", "resource", "start",
                "done", "size", kWaterfallWidth - 8, "", t_max);
  out += line;

  std::size_t rows = 0;
  for (const auto& r : result.resources) {
    if (rows++ >= options.max_rows) {
      out += "  ... (" +
             std::to_string(result.resources.size() - options.max_rows) +
             " more)\n";
      break;
    }
    // Shorten the URL to its path (plus host for third parties).
    std::string label = r.url;
    const auto scheme = label.find("//");
    if (scheme != std::string::npos) label = label.substr(scheme + 2);
    if (label.size() > 34) label = "…" + label.substr(label.size() - 33);

    std::string bar(static_cast<std::size_t>(kWaterfallWidth) + 1, ' ');
    const int start = col(std::max(0.0, r.t_initiated_ms));
    const int first = col(std::max(0.0, r.t_headers_ms));
    const int done = col(std::max(0.0, r.t_complete_ms));
    for (int i = start; i < first; ++i) bar[static_cast<std::size_t>(i)] = '-';
    for (int i = first; i <= done; ++i)
      bar[static_cast<std::size_t>(i)] = r.pushed ? '#' : '=';
    if (done >= start) bar[static_cast<std::size_t>(done)] = '|';

    std::snprintf(line, sizeof(line), "  %-34s %8.1f %9.1f %7zuB  %s%s\n",
                  label.c_str(), r.t_initiated_ms, r.t_complete_ms, r.size,
                  bar.c_str(), r.pushed ? "  [pushed]" : "");
    out += line;
  }

  std::snprintf(line, sizeof(line),
                "  legend: '-' wait  '=' transfer  '#' pushed transfer\n"
                "  first paint %.1f ms   SpeedIndex %.1f ms   PLT %.1f ms   "
                "pushed %.1f KB\n",
                result.first_paint_ms, result.speed_index_ms, result.plt_ms,
                static_cast<double>(result.bytes_pushed) / 1024.0);
  out += line;
  return out;
}

namespace {

const trace::ArgValue* find_arg(const trace::Event& event,
                                std::string_view name) {
  for (const auto& [key, value] : event.args) {
    if (key == name) return &value;
  }
  return nullptr;
}

std::int64_t int_arg(const trace::Event& event, std::string_view name) {
  const auto* v = find_arg(event, name);
  return v != nullptr ? v->i : 0;
}

std::string string_arg(const trace::Event& event, std::string_view name) {
  const auto* v = find_arg(event, name);
  return v != nullptr ? v->s : std::string();
}

http::ResourceType type_from_name(std::string_view name) {
  for (const auto t :
       {http::ResourceType::kHtml, http::ResourceType::kCss,
        http::ResourceType::kJs, http::ResourceType::kImage,
        http::ResourceType::kFont, http::ResourceType::kXhr}) {
    if (http::to_string(t) == name) return t;
  }
  return http::ResourceType::kOther;
}

}  // namespace

browser::PageLoadResult result_from_trace(const trace::TraceRecorder& rec) {
  // Raw per-fetch times; -1 mirrors the Fetch defaults for never-reached
  // lifecycle stages, so the derived milliseconds match the live result.
  struct Row {
    browser::ResourceTiming rt;
    sim::Time t_initiated = -1;
    sim::Time t_headers = -1;
    sim::Time t_complete = -1;
  };
  std::map<std::uint64_t, Row> rows;  // async id = initiation order
  sim::Time t0 = 0;
  browser::PageLoadResult out;

  for (const auto& e : rec.events()) {
    if (e.phase == trace::Phase::kInstant) {
      if (e.name == "mark.connectEnd") {
        t0 = e.ts;
      } else if (e.name == "mark.PLT") {
        out.complete = true;
        const auto* v = find_arg(e, "plt_ms");
        if (v != nullptr) out.plt_ms = v->d;
      } else if (e.name == "mark.speedIndex") {
        const auto* v = find_arg(e, "si_ms");
        if (v != nullptr) out.speed_index_ms = v->d;
      } else if (e.name == "mark.firstPaint") {
        const auto* v = find_arg(e, "ms");
        if (v != nullptr) out.first_paint_ms = v->d;
      }
      continue;
    }
    if (e.name != "fetch") continue;
    Row& row = rows[e.async_id];
    switch (e.phase) {
      case trace::Phase::kAsyncBegin:
        row.t_initiated = e.ts;
        row.rt.url = string_arg(e, "url");
        row.rt.pushed = int_arg(e, "pushed") != 0;
        break;
      case trace::Phase::kAsyncInstant:
        if (string_arg(e, "mark") == "first_byte") row.t_headers = e.ts;
        break;
      case trace::Phase::kAsyncEnd:
        row.t_complete = e.ts;
        row.rt.size = static_cast<std::size_t>(int_arg(e, "size"));
        row.rt.adopted = int_arg(e, "adopted") != 0 ||
                         int_arg(e, "from_cache") != 0;
        row.rt.type = type_from_name(string_arg(e, "type"));
        break;
      default:
        break;
    }
  }

  // mark.domContentLoaded has no payload; derive the offset from its ts.
  for (const auto& e : rec.events()) {
    if (e.phase == trace::Phase::kInstant &&
        e.name == "mark.domContentLoaded" && out.complete) {
      out.dom_content_loaded_ms = sim::to_ms(e.ts - t0);
    }
  }

  for (auto& [id, row] : rows) {  // std::map: initiation order
    row.rt.t_initiated_ms = sim::to_ms(row.t_initiated - t0);
    row.rt.t_headers_ms = sim::to_ms(row.t_headers - t0);
    row.rt.t_complete_ms = sim::to_ms(row.t_complete - t0);
    if (row.rt.pushed) ++out.num_pushed;
    out.resources.push_back(std::move(row.rt));
  }
  out.num_requests = out.resources.size();

  const trace::TraceSummary& s = rec.summary();
  out.bytes_pushed = s.bytes_pushed;
  out.bytes_total = s.bytes_total;
  out.pushes_cancelled = s.pushes_cancelled;
  out.packets_dropped = s.packets_dropped;
  out.retransmissions = s.retransmissions;
  return out;
}

std::string render_waterfall_from_trace(const trace::TraceRecorder& rec,
                                        const WaterfallOptions& options) {
  return render_waterfall(result_from_trace(rec), options);
}

}  // namespace h2push::core

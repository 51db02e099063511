// Trace subsystem tests: recorder semantics, Chrome trace-event export
// (structure, per-track monotonicity, async pairing), the TraceSummary
// agreement with PageLoadResult, byte-exact determinism, and the
// zero-impact contract of the disabled path.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/strategy.h"
#include "core/testbed.h"
#include "core/waterfall.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "web/profiles.h"

namespace h2push {
namespace {

// ------------------------------------------------------------- recorder

TEST(TraceRecorder, StampsEventsThroughTheClock) {
  trace::TraceRecorder rec;
  sim::Time fake_now = sim::from_ms(5);
  rec.set_clock([&fake_now] { return fake_now; });
  const auto track = rec.register_track("t");
  rec.instant(track, "test", "one");
  fake_now = sim::from_ms(9);
  rec.counter(track, "test", "depth", 3.0);
  ASSERT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.events()[0].ts, sim::from_ms(5));
  EXPECT_EQ(rec.events()[1].ts, sim::from_ms(9));
  EXPECT_EQ(rec.events()[1].value, 3.0);
}

TEST(TraceRecorder, TracksAreSequentialFromOne) {
  trace::TraceRecorder rec;
  EXPECT_EQ(rec.register_track("a"), 1u);
  EXPECT_EQ(rec.register_track("b"), 2u);
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[0], "a");
}

TEST(TraceRecorder, LateMarksSortBackIntoPlace) {
  trace::TraceRecorder rec;
  sim::Time fake_now = sim::from_ms(100);
  rec.set_clock([&fake_now] { return fake_now; });
  const auto track = rec.register_track("t");
  rec.instant(track, "test", "live");
  rec.instant_at(sim::from_ms(40), track, "test", "derived-mark");
  const auto json = trace::to_chrome_trace_json(rec);
  // The exporter orders by timestamp: the late-emitted mark precedes.
  EXPECT_LT(json.find("derived-mark"), json.find("live"));
}

// ------------------------------------------------- traced full page load

core::Strategy push_all_strategy(const web::Site& site, bool interleaving) {
  core::Strategy s;
  s.name = "push-all-test";
  s.client_push_enabled = true;
  for (const auto& r : site.plan.resources) {
    s.push_urls.push_back("https://" + r.host + r.path);
  }
  s.interleaving = interleaving;
  s.critical_count = 2;
  return s;
}

browser::PageLoadResult run_traced(trace::TraceRecorder* rec,
                                   bool interleaving) {
  const auto site = web::make_synthetic_site(1);
  core::RunConfig cfg;
  cfg.trace = rec;
  return core::run_page_load(site, push_all_strategy(site, interleaving),
                             cfg);
}

// Minimal structural JSON check: balanced braces/brackets outside strings.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

// Pull a numeric field like "ts":123.456 out of one serialized event line.
double number_field(const std::string& line, const std::string& key) {
  const auto pos = line.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " missing in " << line;
  return std::atof(line.c_str() + pos + key.size() + 3);
}

TEST(ChromeTraceExport, ValidJsonWithMonotonicTracks) {
  trace::TraceRecorder rec;
  const auto result = run_traced(&rec, /*interleaving=*/false);
  ASSERT_TRUE(result.complete);
  ASSERT_GT(rec.size(), 100u);

  const auto json = trace::to_chrome_trace_json(rec);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_TRUE(json_balanced(json));

  // Walk the serialized events line by line: within each track, exported
  // timestamps never go backwards (the Perfetto requirement).
  std::map<int, double> last_ts;
  std::size_t checked = 0;
  std::size_t start = 0;
  while (start < json.size()) {
    auto end = json.find('\n', start);
    if (end == std::string::npos) end = json.size();
    const std::string line = json.substr(start, end - start);
    start = end + 1;
    if (line.find("\"ph\":\"") == std::string::npos ||
        line.find("\"ph\":\"M\"") != std::string::npos) {
      continue;
    }
    const int tid = static_cast<int>(number_field(line, "tid"));
    const double ts = number_field(line, "ts");
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << line;
    }
    last_ts[tid] = ts;
    ++checked;
  }
  EXPECT_EQ(checked, rec.size());
  EXPECT_GT(last_ts.size(), 3u);  // events landed on several tracks
}

TEST(ChromeTraceExport, EventsFromAllLayersAndPairedAsyncSpans) {
  trace::TraceRecorder rec;
  const auto result = run_traced(&rec, /*interleaving=*/true);
  ASSERT_TRUE(result.complete);

  std::set<std::string> cats;
  std::map<std::uint64_t, int> begins;
  std::map<std::uint64_t, int> ends;
  std::set<std::string> names;
  for (const auto& e : rec.events()) {
    cats.insert(e.category);
    names.insert(e.name);
    if (e.phase == trace::Phase::kAsyncBegin) ++begins[e.async_id];
    if (e.phase == trace::Phase::kAsyncEnd) ++ends[e.async_id];
  }
  for (const char* cat : {"sim", "tcp", "h2", "server", "browser"}) {
    EXPECT_TRUE(cats.count(cat)) << "no events from category " << cat;
  }
  // Every fetch span that ended began exactly once, and vice versa (the
  // load completed, so no span is left open).
  EXPECT_EQ(begins, ends);
  EXPECT_GT(begins.size(), 2u);
  // The interleaving scheduler marked its hard switch.
  EXPECT_TRUE(names.count("interleave.configure"));
  EXPECT_TRUE(names.count("interleave.pause"));
  EXPECT_TRUE(names.count("interleave.resume"));
  EXPECT_TRUE(names.count("mark.onload"));
  EXPECT_TRUE(names.count("mark.connectEnd"));
}

// The roll-up fields every arm reports identically in both places.
void expect_summary_matches(const trace::TraceSummary& s,
                            const browser::PageLoadResult& result) {
  EXPECT_EQ(s.bytes_pushed, result.bytes_pushed);
  EXPECT_EQ(s.bytes_total, result.bytes_total);
  EXPECT_EQ(s.pushes_cancelled, result.pushes_cancelled);
  EXPECT_EQ(s.packets_dropped, result.packets_dropped);
  EXPECT_EQ(s.retransmissions, result.retransmissions);
  EXPECT_GT(s.packets_delivered, 0u);
  EXPECT_GT(s.run_span, 0);
  EXPECT_EQ(s.downlink_busy + s.downlink_idle, s.run_span);
  EXPECT_EQ(s.uplink_busy + s.uplink_idle, s.run_span);
}

TEST(TraceSummary, AgreesWithPageLoadResult) {
  trace::TraceRecorder rec;
  const auto result = run_traced(&rec, /*interleaving=*/false);
  ASSERT_TRUE(result.complete);

  const auto& s = rec.summary();
  expect_summary_matches(s, result);
  EXPECT_GT(s.push_promises, 0u);
  EXPECT_GT(s.frames_sent.at("DATA"), 0u);
  EXPECT_GT(s.frames_sent.at("PUSH_PROMISE"), 0u);
  EXPECT_GT(s.frames_received.at("HEADERS"), 0u);
  EXPECT_FALSE(json_balanced("{"));  // sanity of the checker itself
  EXPECT_TRUE(json_balanced(trace::summary_to_json(s)));

  // The HTTP/1.1 arm under loss: its TCP sessions must report their
  // retransmissions to both the result and the trace.
  trace::TraceRecorder h1_rec;
  const auto site = web::make_synthetic_site(1);
  core::RunConfig cfg;
  cfg.net = sim::NetworkConditions::internet();
  cfg.seed = 3;
  cfg.browser.use_http1 = true;
  cfg.trace = &h1_rec;
  const auto h1 = core::run_page_load(site, core::no_push(), cfg);
  ASSERT_TRUE(h1.complete);
  EXPECT_GT(h1.retransmissions, 0u);
  expect_summary_matches(h1_rec.summary(), h1);
}

TEST(Trace, SameSeedProducesByteIdenticalExport) {
  trace::TraceRecorder a;
  trace::TraceRecorder b;
  run_traced(&a, /*interleaving=*/true);
  run_traced(&b, /*interleaving=*/true);
  EXPECT_EQ(trace::to_chrome_trace_json(a), trace::to_chrome_trace_json(b));
  EXPECT_EQ(trace::summary_to_json(a.summary()),
            trace::summary_to_json(b.summary()));
}

TEST(Trace, DisabledRecorderDoesNotChangeTheRun) {
  trace::TraceRecorder rec;
  const auto traced = run_traced(&rec, /*interleaving=*/true);
  const auto plain = run_traced(nullptr, /*interleaving=*/true);
  EXPECT_EQ(traced.plt_ms, plain.plt_ms);
  EXPECT_EQ(traced.speed_index_ms, plain.speed_index_ms);
  EXPECT_EQ(traced.bytes_pushed, plain.bytes_pushed);
  EXPECT_EQ(traced.bytes_total, plain.bytes_total);
  EXPECT_EQ(traced.num_requests, plain.num_requests);
}

TEST(Trace, WaterfallFromTraceMatchesLiveWaterfall) {
  trace::TraceRecorder rec;
  const auto result = run_traced(&rec, /*interleaving=*/false);
  ASSERT_TRUE(result.complete);
  EXPECT_EQ(core::render_waterfall_from_trace(rec),
            core::render_waterfall(result));
}

}  // namespace
}  // namespace h2push

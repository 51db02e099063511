// Micro-benchmarks for the protocol substrate (google-benchmark): HPACK
// encode/decode, Huffman coding, frame serialization/parsing, priority-tree
// scheduling, the HTML tokenizer, the CSS parser and its memo, event
// dispatch through the heap and through a lane, the TCP model, and
// end-to-end simulated page loads. These guard the simulator's throughput
// (the figure harnesses run tens of thousands of page loads).
// BM_HtmlTokenize and BM_CssParse report time_per_kb, BM_CssParseShared
// time_per_hit (a parse_css_shared memo hit), BM_SimDispatch
// time_per_event, BM_LaneDispatch time_per_packet and BM_TcpTransfer
// time_per_segment, all in seconds (SI-prefixed).
#include <benchmark/benchmark.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "browser/css.h"
#include "browser/html.h"
#include "core/memo.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "h2/frame.h"
#include "h2/hpack.h"
#include "h2/hpack_huffman.h"
#include "h2/priority.h"
#include "sim/conditions.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tcp.h"
#include "web/corpus.h"
#include "web/profiles.h"

namespace {

using namespace h2push;

http::HeaderBlock sample_headers() {
  return {
      {":method", "GET"},
      {":scheme", "https"},
      {":authority", "www.example.com"},
      {":path", "/static/css/main.0a1b2c3d.css"},
      {"accept", "text/html,application/xhtml+xml"},
      {"accept-encoding", "gzip, deflate, br"},
      {"user-agent", "Mozilla/5.0 (X11; Linux x86_64) Chrome/64.0"},
      {"cookie", "session=0123456789abcdef0123456789abcdef"},
  };
}

void BM_HpackEncode(benchmark::State& state) {
  const auto headers = sample_headers();
  h2::HpackEncoder encoder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(headers));
  }
}
BENCHMARK(BM_HpackEncode);

void BM_HpackRoundTrip(benchmark::State& state) {
  const auto headers = sample_headers();
  h2::HpackEncoder encoder;
  h2::HpackDecoder decoder;
  for (auto _ : state) {
    const auto bytes = encoder.encode(headers);
    auto decoded = decoder.decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_HpackRoundTrip);

void BM_HuffmanEncode(benchmark::State& state) {
  const std::string input =
      "/very/long/path/with/segments/and-a-hash.0a1b2c3d4e5f.js";
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    h2::huffman_encode(input, out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_HuffmanEncode);

void BM_HuffmanDecode(benchmark::State& state) {
  const std::string input =
      "/very/long/path/with/segments/and-a-hash.0a1b2c3d4e5f.js";
  std::vector<std::uint8_t> encoded;
  h2::huffman_encode(input, encoded);
  for (auto _ : state) {
    auto decoded = h2::huffman_decode(encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_HuffmanDecode);

void BM_FrameParse(benchmark::State& state) {
  h2::DataFrame data;
  data.stream_id = 5;
  data.data.assign(16000, 0x42);
  const auto wire = h2::serialize(h2::Frame{data});
  for (auto _ : state) {
    h2::FrameParser parser;
    auto frames = parser.feed(wire);
    benchmark::DoNotOptimize(frames);
  }
}
BENCHMARK(BM_FrameParse);

void BM_PriorityTreePick(benchmark::State& state) {
  h2::PriorityTree tree;
  const int n = static_cast<int>(state.range(0));
  for (int i = 1; i <= n; ++i) {
    tree.add(static_cast<std::uint32_t>(i * 2 + 1),
             h2::PrioritySpec{static_cast<std::uint32_t>(
                                  i > 1 ? (i - 1) * 2 + 1 : 0),
                              16, false});
    tree.set_ready(static_cast<std::uint32_t>(i * 2 + 1), i % 2 == 0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.pick());
  }
}
BENCHMARK(BM_PriorityTreePick)->Arg(16)->Arg(128);

/// Seconds per unit of `units` summed over all iterations.
benchmark::Counter time_per(double units) {
  return benchmark::Counter(
      units, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

/// Bodies of one resource type over the paper's sites w1..w20.
std::vector<std::string> paper_site_bodies(http::ResourceType type) {
  std::vector<std::string> out;
  for (int w = 1; w <= 20; ++w) {
    const web::Site site = web::make_w_site(w).site;
    for (const auto& e : site.store->all()) {
      if (e.response.type == type) out.push_back(*e.body);
    }
  }
  return out;
}

void BM_HtmlTokenize(benchmark::State& state) {
  std::vector<std::string> pages;
  for (int w = 1; w <= 20; ++w) {
    const web::Site site = web::make_w_site(w).site;
    pages.push_back(*site.find(site.main_url)->body);
  }
  double kb = 0;
  for (auto _ : state) {
    for (const auto& page : pages) {
      browser::HtmlTokenizer tokenizer(&page);
      while (auto token = tokenizer.next()) benchmark::DoNotOptimize(token);
      kb += static_cast<double>(page.size()) / 1024.0;
    }
  }
  state.counters["time_per_kb"] = time_per(kb);
}
BENCHMARK(BM_HtmlTokenize)->Unit(benchmark::kMillisecond);

void BM_CssParse(benchmark::State& state) {
  const auto sheets = paper_site_bodies(http::ResourceType::kCss);
  double kb = 0;
  for (auto _ : state) {
    for (const auto& sheet : sheets) {
      benchmark::DoNotOptimize(browser::parse_css(sheet));
      kb += static_cast<double>(sheet.size()) / 1024.0;
    }
  }
  state.counters["time_per_kb"] = time_per(kb);
}
BENCHMARK(BM_CssParse)->Unit(benchmark::kMillisecond);

void BM_CssParseShared(benchmark::State& state) {
  // Every lookup after the warm-up pass is a memo hit: hash, lock, compare.
  const auto sheets = paper_site_bodies(http::ResourceType::kCss);
  for (const auto& sheet : sheets) browser::parse_css_shared(sheet);
  double hits = 0;
  for (auto _ : state) {
    for (const auto& sheet : sheets) {
      benchmark::DoNotOptimize(browser::parse_css_shared(sheet));
    }
    hits += static_cast<double>(sheets.size());
  }
  state.counters["time_per_hit"] = time_per(hits);
}
BENCHMARK(BM_CssParseShared)->Unit(benchmark::kMicrosecond);

// A chain of events, each scheduling the next 1 us later through the
// event heap (as perfbench's sim_dispatch_ns_per_event probe does).
struct Tick {
  sim::Simulator* sim;
  int left;
  void operator()() const {
    if (left > 0) sim->schedule_in(1000, Tick{sim, left - 1});
  }
};

void BM_SimDispatch(benchmark::State& state) {
  // 64 chains of 512 events: the heap holds 64 entries throughout.
  constexpr int kChains = 64;
  constexpr int kLength = 512;
  double events = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    for (int c = 0; c < kChains; ++c) sim.schedule_in(c, Tick{&sim, kLength});
    sim.run();
    benchmark::DoNotOptimize(sim.executed_events());
    events += static_cast<double>(sim.executed_events());
  }
  state.counters["time_per_event"] = time_per(events);
}
BENCHMARK(BM_SimDispatch)->Unit(benchmark::kMicrosecond);

// Packets on one route: each arrival sends the next packet, keeping 64 in
// flight through the link's queue and the route's lane. The lane's head is
// the heap's only entry, so this times the link plus lane dispatch
// (replace-top), not the heap's depth.
struct Hop {
  sim::Simulator::Lane* lane;
  sim::Route route;
  int* left;
  void operator()() const {
    if (--*left >= 0) route.transmit(*lane, 1500, *this);
  }
};

void BM_LaneDispatch(benchmark::State& state) {
  constexpr int kInFlight = 64;
  constexpr int kPackets = 64 * 512;
  double packets = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::LinkConfig cfg;
    cfg.prop_delay = sim::from_ms(20);
    sim::Link link(sim, cfg, util::Rng(1));
    sim::Simulator::Lane lane;
    int left = kPackets - kInFlight;
    const Hop hop{&lane, sim::Route{&link, sim::from_ms(5)}, &left};
    for (int i = 0; i < kInFlight; ++i) hop.route.transmit(lane, 1500, hop);
    sim.run();
    benchmark::DoNotOptimize(link.delivered_packets());
    packets += static_cast<double>(link.delivered_packets());
  }
  state.counters["time_per_packet"] = time_per(packets);
}
BENCHMARK(BM_LaneDispatch)->Unit(benchmark::kMicrosecond);

void BM_TcpTransfer(benchmark::State& state) {
  // One connection on the testbed access link (16/1 Mbit/s, 50 ms RTT)
  // carrying 1 MB server → client, handshake included.
  const auto net = sim::NetworkConditions::testbed();
  const sim::Time extra_prop = net.base_rtt / 2 - sim::from_ms(2);
  const std::vector<std::uint8_t> payload(1 << 20, 0x5a);
  double segments = 0;
  double queue_work = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::LinkConfig down_cfg;
    down_cfg.rate_bps = net.down_bps;
    down_cfg.prop_delay = sim::from_ms(2);
    down_cfg.queue_capacity = net.queue_capacity;
    sim::LinkConfig up_cfg = down_cfg;
    up_cfg.rate_bps = net.up_bps;
    sim::Link down(sim, down_cfg, util::Rng(1));
    sim::Link up(sim, up_cfg, util::Rng(2));
    std::size_t received = 0;
    sim::TcpConnection* conn_ptr = nullptr;
    sim::TcpConnection::Callbacks cbs;
    cbs.on_connected = [&] {
      conn_ptr->send(sim::TcpConnection::Side::kServer, payload);
    };
    cbs.on_receive = [&](sim::TcpConnection::Side,
                         std::span<const std::uint8_t> bytes) {
      received += bytes.size();
    };
    sim::TcpConnection conn(sim, sim::TcpConfig{},
                            sim::Route{&up, extra_prop},
                            sim::Route{&down, extra_prop}, std::move(cbs));
    conn_ptr = &conn;
    conn.connect();
    sim.run();
    if (received != payload.size()) state.SkipWithError("tcp lost bytes");
    segments += static_cast<double>(down.delivered_packets());
    queue_work +=
        static_cast<double>(sim.executed_events() + sim.queue_pushes());
  }
  state.counters["time_per_segment"] = time_per(segments);
  // Events fired plus event-queue pushes, per delivered segment.
  state.counters["events_per_segment"] = queue_work / segments;
}
BENCHMARK(BM_TcpTransfer)->Unit(benchmark::kMillisecond);

void BM_PageLoad(benchmark::State& state) {
  const auto profile = web::PopulationProfile::random100();
  const auto site =
      web::build_site(web::generate_page(profile, "bench-load", 99));
  core::RunConfig cfg;
  const auto strategy = core::no_push();
  for (auto _ : state) {
    cfg.run_index = static_cast<int>(state.iterations() % 1000);
    benchmark::DoNotOptimize(core::run_page_load(site, strategy, cfg));
  }
}
BENCHMARK(BM_PageLoad)->Unit(benchmark::kMillisecond);

void BM_PageLoadMemoized(benchmark::State& state) {
  const auto profile = web::PopulationProfile::random100();
  const auto site =
      web::build_site(web::generate_page(profile, "bench-load", 99));
  core::RunCache cache;
  core::RunConfig cfg;
  cfg.cache = &cache;
  const auto strategy = core::no_push();
  for (auto _ : state) {
    cfg.run_index = static_cast<int>(state.iterations() % 1000);
    benchmark::DoNotOptimize(core::run_page_load(site, strategy, cfg));
  }
}
BENCHMARK(BM_PageLoadMemoized)->Unit(benchmark::kMicrosecond);

void BM_SiteGeneration(benchmark::State& state) {
  const auto profile = web::PopulationProfile::top100();
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(web::build_site(
        web::generate_page(profile, "gen-" + std::to_string(i++ % 64), 7)));
  }
}
BENCHMARK(BM_SiteGeneration)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip the harness-wide flags scripts/bench.sh passes uniformly
  // (--quick, --jobs N, --cache DIR); google-benchmark rejects unknown
  // arguments.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") continue;
    if ((arg == "--jobs" || arg == "--cache") && i + 1 < argc) {
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Per-layer time probes. Each one drives a single layer through its public
// API on the workload's own recorded exchanges (or, for the event
// dispatchers, on a fixed pattern) and reports host nanoseconds per unit of
// work. They time each layer in isolation; the work counts come from the
// traced runs of each workload.
#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "browser/css.h"
#include "browser/html.h"
#include "h2/frame.h"
#include "h2/hpack.h"
#include "net/timer_wheel.h"
#include "sim/link.h"
#include "sim/simulator.h"
#include "sim/tcp.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace h2push;

constexpr double kProbeSeconds = 0.15;

/// Repeat `round` (returning the units of work it did) for kProbeSeconds;
/// nanoseconds per unit.
template <typename Round>
double ns_per_unit(Round&& round) {
  double units = 0;
  const double start = now_s();
  do {
    units += round();
  } while (now_s() - start < kProbeSeconds);
  return units > 0 ? (now_s() - start) * 1e9 / units : 0.0;
}

std::vector<const replay::RecordedExchange*> exchanges_of(
    const std::vector<const replay::RecordStore*>& stores,
    std::optional<http::ResourceType> type = std::nullopt) {
  std::vector<const replay::RecordedExchange*> out;
  for (const auto* store : stores) {
    for (const auto& e : store->all()) {
      if (!type || e.response.type == *type) out.push_back(&e);
    }
  }
  return out;
}

double html_tokenize(const std::vector<const replay::RecordStore*>& stores,
                     Result& result) {
  const auto pages = exchanges_of(stores, http::ResourceType::kHtml);
  return ns_per_unit([&] {
    double kb = 0;
    for (const auto* e : pages) {
      browser::HtmlTokenizer tokenizer(e->body.get());
      std::size_t tokens = 0;
      while (tokenizer.next()) ++tokens;
      result.check(tokens > 0 && tokenizer.at_end(), "html tokenizer stalled");
      kb += static_cast<double>(e->body->size()) / 1024.0;
    }
    return kb;
  });
}

double css_parse(const std::vector<const replay::RecordStore*>& stores) {
  const auto sheets = exchanges_of(stores, http::ResourceType::kCss);
  return ns_per_unit([&] {
    double kb = 0;
    for (const auto* e : sheets) {
      browser::parse_css(*e->body);
      kb += static_cast<double>(e->body->size()) / 1024.0;
    }
    return kb;
  });
}

double hpack_round_trip(const std::vector<const replay::RecordStore*>& stores,
                        Result& result) {
  const auto all = exchanges_of(stores);
  std::vector<http::HeaderBlock> blocks;
  for (const auto* e : all) blocks.push_back(e->response.to_h2_headers());
  h2::HpackEncoder encoder;
  h2::HpackDecoder decoder;
  std::vector<std::uint8_t> wire;
  return ns_per_unit([&] {
    for (const auto& block : blocks) {
      encoder.encode_into(block, wire);
      const auto decoded = decoder.decode(wire);
      result.check(decoded.has_value() && decoded.value() == block,
                   "hpack round trip changed a header block");
    }
    return static_cast<double>(blocks.size());
  });
}

double frame_round_trip(const std::vector<const replay::RecordStore*>& stores,
                        Result& result) {
  const auto all = exchanges_of(stores);
  std::vector<std::uint8_t> wire;
  return ns_per_unit([&] {
    wire.clear();
    std::size_t body_bytes = 0;
    for (const auto* e : all) {
      const std::string& body = *e->body;
      body_bytes += body.size();
      for (std::size_t off = 0; off < body.size();
           off += h2::kDefaultMaxFrameSize) {
        const std::size_t n =
            std::min<std::size_t>(h2::kDefaultMaxFrameSize, body.size() - off);
        h2::append_data_frame(
            wire, 1, off + n == body.size(),
            {reinterpret_cast<const std::uint8_t*>(body.data()) + off, n});
      }
    }
    h2::FrameParser parser;
    const auto frames = parser.feed(wire);
    std::size_t parsed = 0;
    if (frames.has_value()) {
      for (const auto& f : frames.value()) {
        if (const auto* d = std::get_if<h2::DataFrame>(&f)) {
          parsed += d->data.size();
        }
      }
    }
    result.check(parsed == body_bytes, "frame round trip lost DATA bytes");
    return static_cast<double>(body_bytes) / 1024.0;
  });
}

double replay_lookup(const std::vector<const replay::RecordStore*>& stores,
                     Result& result) {
  return ns_per_unit([&] {
    double lookups = 0;
    for (const auto* store : stores) {
      for (const auto& e : store->all()) {
        const auto* hit = store->find(e.request.url.host, e.request.url.path);
        result.check(hit != nullptr, "replay lookup missed a recorded URL");
        ++lookups;
      }
    }
    return lookups;
  });
}

double timer_wheel_ops(Result& result) {
  constexpr std::uint64_t kTimers = 4096;
  std::vector<net::TimerWheel::TimerId> ids(kTimers);
  return ns_per_unit([&] {
    net::TimerWheel wheel(0);
    std::uint64_t fired = 0;
    for (std::uint64_t i = 0; i < kTimers; ++i) {
      ids[i] = wheel.schedule(1 + (i * 7919) % 5000, [&fired] { ++fired; });
    }
    for (std::uint64_t i = 0; i < kTimers; i += 2) wheel.cancel(ids[i]);
    wheel.advance(6000);
    result.check(fired == kTimers / 2 && wheel.armed() == 0,
                 "timer wheel fired the wrong timers");
    return static_cast<double>(kTimers * 2);  // schedule + cancel-or-fire
  });
}

struct Tick {
  sim::Simulator* sim;
  std::uint64_t* fired;
  int left;
  void operator()() const {
    ++*fired;
    if (left > 0) sim->schedule_in(1000, Tick{sim, fired, left - 1});
  }
};

double sim_dispatch() {
  constexpr int kChains = 64;
  constexpr int kLength = 512;
  return ns_per_unit([&] {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    for (int c = 0; c < kChains; ++c) {
      sim.schedule_in(c, Tick{&sim, &fired, kLength});
    }
    sim.run();
    return static_cast<double>(fired);
  });
}

double tcp_model(const std::vector<const replay::RecordStore*>& stores,
                 Result& result) {
  // One connection carrying a site's worth of bytes over the testbed's
  // access link.
  std::vector<std::uint8_t> payload;
  for (const auto* e : exchanges_of(stores)) {
    if (payload.size() >= (1u << 20)) break;
    payload.insert(payload.end(), e->body->begin(), e->body->end());
  }
  return ns_per_unit([&] {
    sim::Simulator sim;
    sim::LinkConfig down_cfg;
    down_cfg.prop_delay = sim::from_ms(25);
    sim::LinkConfig up_cfg = down_cfg;
    up_cfg.rate_bps = 1e6;
    sim::Link down(sim, down_cfg, util::Rng(1));
    sim::Link up(sim, up_cfg, util::Rng(2));
    std::uint64_t received = 0;
    sim::TcpConnection* conn_ptr = nullptr;
    sim::TcpConnection::Callbacks cbs;
    cbs.on_connected = [&] {
      conn_ptr->send(sim::TcpConnection::Side::kServer, payload);
    };
    cbs.on_receive = [&](sim::TcpConnection::Side,
                         std::span<const std::uint8_t> bytes) {
      received += bytes.size();
    };
    sim::TcpConnection conn(sim, sim::TcpConfig{}, sim::Route{&up, 0},
                            sim::Route{&down, 0}, std::move(cbs));
    conn_ptr = &conn;
    conn.connect();
    sim.run();
    result.check(received == payload.size(), "tcp model lost bytes");
    return static_cast<double>(down.delivered_packets() +
                               up.delivered_packets());
  });
}

}  // namespace

void simulator_layer_probes(
    const std::vector<const replay::RecordStore*>& stores, Result& result) {
  result.metrics["sim_dispatch_ns_per_event"] = sim_dispatch();
  result.metrics["tcp_model_ns_per_packet"] = tcp_model(stores, result);
  result.metrics["hpack_ns_per_block"] = hpack_round_trip(stores, result);
  result.metrics["frame_ns_per_kb"] = frame_round_trip(stores, result);
  result.metrics["html_tokenize_ns_per_kb"] = html_tokenize(stores, result);
  result.metrics["css_parse_ns_per_kb"] = css_parse(stores);
}

void serving_layer_probes(const replay::RecordStore& store, Result& result) {
  const std::vector<const replay::RecordStore*> stores{&store};
  result.metrics["hpack_ns_per_block"] = hpack_round_trip(stores, result);
  result.metrics["frame_ns_per_kb"] = frame_round_trip(stores, result);
  result.metrics["replay_lookup_ns"] = replay_lookup(stores, result);
  result.metrics["timer_wheel_ns_per_op"] = timer_wheel_ops(result);
}

}  // namespace perfbench

#include "core/testbed.h"

#include <cassert>
#include <map>
#include <memory>

#include "core/memo.h"
#include "core/runner.h"
#include "core/sim_transport.h"
#include "server/h1_replay_server.h"
#include "server/replay_server.h"
#include "stats/descriptive.h"
#include "trace/trace.h"

namespace h2push::core {
namespace {

/// The actual simulation, always executed on a cache miss (and on every
/// traced run — a cached result cannot reproduce the event stream).
browser::PageLoadResult run_page_load_uncached(const web::Site& site,
                                               const Strategy& strategy,
                                               const RunConfig& config) {
  sim::Simulator sim;
  util::Rng master(config.seed ^ util::hash64(site.name) ^
                   (0x9e3779b97f4a7c15ULL *
                    static_cast<std::uint64_t>(config.run_index + 1)));

  util::Rng net_rng = master.fork("net");
  const sim::ConditionSample sample =
      sim::sample_conditions(config.net, net_rng);

  sim::LinkConfig down_cfg;
  down_cfg.rate_bps = sample.down_bps;
  down_cfg.prop_delay = sim::from_ms(2);
  down_cfg.queue_capacity = config.net.queue_capacity;
  down_cfg.queue_packets = 1000;  // tc pfifo default
  down_cfg.random_loss = sample.loss;
  sim::LinkConfig up_cfg = down_cfg;
  up_cfg.rate_bps = sample.up_bps;
  auto downlink =
      std::make_unique<sim::Link>(sim, down_cfg, master.fork("loss-down"));
  auto uplink =
      std::make_unique<sim::Link>(sim, up_cfg, master.fork("loss-up"));

  trace::TraceRecorder* tr = config.trace;
  std::uint32_t browser_track = 0;
  if (tr != nullptr) {
    tr->set_clock([&sim] { return sim.now(); });
    browser_track = tr->register_track("browser");
    downlink->set_trace(tr, tr->register_track("link.down"));
    uplink->set_trace(tr, tr->register_track("link.up"));
  }

  // The push policy is served by whichever server hosts the trigger (the
  // primary origin). All servers share the store and origin map.
  server::PushPolicy policy;
  policy.trigger_host = site.main_url.host;
  policy.trigger_path = site.main_url.path;
  policy.push_urls = strategy.push_urls;
  policy.interleaving = strategy.interleaving;
  policy.interleave_offset = strategy.interleave_offset;
  policy.critical_count = strategy.critical_count;
  policy.hint_urls = strategy.hint_urls;
  std::map<std::string, server::PushPolicy> policies;
  if (!policy.empty()) policies.emplace(policy.trigger_host, std::move(policy));

  const std::string primary_ip = site.origins.ip_of(site.main_url.host);

  util::Rng rtt_rng = master.fork("rtt");
  util::Rng think_rng = master.fork("think");
  std::vector<const sim::TcpConnection*> tcps;

  const bool use_http1 = config.browser.use_http1;
  browser::TransportFactory factory =
      [&sim, &site, &policies, &sample, &downlink, &uplink, primary_ip,
       &rtt_rng, &think_rng, &tcps, use_http1, tr](const std::string& host)
      -> std::unique_ptr<browser::ClientTransport> {
    const std::string ip = site.origins.ip_of(host);
    sim::Time rtt = sample.origin_rtt(rtt_rng);
    if (const auto hit = site.plan.host_rtt_extra_ms.find(host);
        hit != site.plan.host_rtt_extra_ms.end()) {
      rtt += sim::from_ms(hit->second);
    }
    // Access-link propagation is 2 ms each way; the rest of the RTT is the
    // path beyond the access link.
    sim::Time extra = rtt / 2 - sim::from_ms(2);
    if (extra < 0) extra = 0;
    sim::Route up{uplink.get(), extra};
    sim::Route down{downlink.get(), extra};

    // Server think time: an exponential delay before every response,
    // drawn from a per-host stream.
    std::function<void(std::function<void()>)> defer;
    if (sample.server_think_mean > 0) {
      defer = [&sim, rng = think_rng.fork(host),
               mean = static_cast<double>(sample.server_think_mean)](
                  std::function<void()> respond) mutable {
        sim.schedule_in(static_cast<sim::Time>(rng.exponential(mean)),
                        std::move(respond));
      };
    }
    const std::uint32_t track =
        tr != nullptr ? tr->register_track("server." + host) : 0;

    const auto stagger =
        sim::from_ms(rtt_rng.uniform(0.5, 12.0));  // DNS + socket setup
    const auto keep = [&tcps](auto transport)
        -> std::unique_ptr<browser::ClientTransport> {
      tcps.push_back(&transport->tcp());
      return transport;
    };
    if (use_http1) {
      server::H1ReplayServer::Config h1c;
      h1c.store = site.store.get();
      h1c.defer = std::move(defer);
      return keep(std::make_unique<SimTransport<server::H1ReplayServer>>(
          sim, up, down, std::move(h1c), tr, track, stagger));
    }
    server::ReplayServer::Config sc;
    sc.store = site.store.get();
    sc.origins = &site.origins;
    sc.defer = std::move(defer);
    if (ip == primary_ip) sc.policies = &policies;
    sc.trace = tr;
    sc.trace_track = track;
    return keep(std::make_unique<SimTransport<server::ReplayServer>>(
        sim, up, down, std::move(sc), tr, track, stagger));
  };

  browser::BrowserConfig bc = config.browser;
  bc.enable_push = strategy.client_push_enabled;
  bc.trace = tr;
  bc.trace_track = browser_track;

  browser::PageLoad load(sim, bc, site.origins, site.main_url,
                         std::move(factory), master.fork("compute"));
  load.start();
  sim.run(browser::kLoadDeadline);
  auto result = load.result();
  result.packets_dropped =
      downlink->dropped_packets() + uplink->dropped_packets();
  for (const auto* tcp : tcps) result.retransmissions += tcp->retransmissions();
  if (tr != nullptr) {
    // Finalize the roll-up and stamp the derived marks at their true times;
    // the exporter orders by timestamp, so tracks stay monotonic.
    auto& s = tr->summary();
    s.run_span = sim.now();
    s.downlink_busy = downlink->busy_time();
    s.downlink_idle = s.run_span - s.downlink_busy;
    s.uplink_busy = uplink->busy_time();
    s.uplink_idle = s.run_span - s.uplink_busy;
    const sim::Time t0 = load.fetches().main_connect_end();
    tr->instant_at(t0, browser_track, "browser", "mark.connectEnd");
    if (result.complete) {
      tr->instant_at(t0 + sim::from_ms(result.plt_ms), browser_track,
                     "browser", "mark.PLT", {{"plt_ms", result.plt_ms}});
    }
    if (result.speed_index_ms > 0) {
      tr->instant_at(t0 + sim::from_ms(result.speed_index_ms), browser_track,
                     "browser", "mark.speedIndex",
                     {{"si_ms", result.speed_index_ms}});
    }
    if (result.first_paint_ms > 0) {
      tr->instant_at(t0 + sim::from_ms(result.first_paint_ms), browser_track,
                     "browser", "mark.firstPaint",
                     {{"ms", result.first_paint_ms}});
    }
    if (config.cache != nullptr) {
      // Traced runs bypass the cache, but the summary still reports the
      // cache's cumulative effectiveness for the surrounding sweep.
      const auto cs = config.cache->stats();
      s.extra["cache.hits"] = static_cast<double>(cs.hits);
      s.extra["cache.misses"] = static_cast<double>(cs.misses);
      s.extra["cache.hit_rate"] = cs.hit_rate();
      s.extra["cache.bytes_read"] = static_cast<double>(cs.bytes_read);
      s.extra["cache.bytes_written"] = static_cast<double>(cs.bytes_written);
    }
  }
  return result;
}

}  // namespace

browser::PageLoadResult run_page_load(const web::Site& site,
                                      const Strategy& strategy,
                                      const RunConfig& config) {
  RunCache* cache = config.cache;
  if (cache == nullptr || config.trace != nullptr) {
    return run_page_load_uncached(site, strategy, config);
  }
  const util::Hash128 key = cache->key(site, strategy, config);
  if (const auto hit = cache->lookup(key)) {
    if (cache->should_verify(key)) {
      cache->verify(key, *hit, run_page_load_uncached(site, strategy, config));
    }
    return *hit;
  }
  auto result = run_page_load_uncached(site, strategy, config);
  cache->store(key, result);
  return result;
}

std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config,
                                                  int runs) {
  std::vector<browser::PageLoadResult> out;
  out.reserve(static_cast<std::size_t>(runs));
  for (int i = 0; i < runs; ++i) {
    config.run_index = i;
    out.push_back(run_page_load(site, strategy, config));
  }
  return out;
}

std::vector<browser::PageLoadResult> run_repeated(const web::Site& site,
                                                  const Strategy& strategy,
                                                  RunConfig config, int runs,
                                                  ParallelRunner& runner) {
  assert(config.trace == nullptr &&
         "tracing is per-run; record with the serial run_page_load");
  return runner.map<browser::PageLoadResult>(
      static_cast<std::size_t>(runs), [&](std::size_t i) {
        RunConfig cfg = config;
        cfg.run_index = static_cast<int>(i);
        return run_page_load(site, strategy, cfg);
      });
}

MetricSeries collect(const std::vector<browser::PageLoadResult>& results) {
  MetricSeries s;
  for (const auto& r : results) {
    s.plt_ms.push_back(r.plt_ms);
    s.speed_index_ms.push_back(r.speed_index_ms);
    s.bytes_pushed.push_back(static_cast<double>(r.bytes_pushed));
  }
  return s;
}

double MetricSeries::plt_median() const { return stats::median(plt_ms); }
double MetricSeries::si_median() const {
  return stats::median(speed_index_ms);
}
double MetricSeries::plt_std_error() const {
  return stats::std_error(plt_ms);
}
double MetricSeries::si_std_error() const {
  return stats::std_error(speed_index_ms);
}

}  // namespace h2push::core

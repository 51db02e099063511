// Simulator workload.
//
// sim: a cold sweep. Page loads of the paper's sites under no push,
// push-all with the default parent-first scheduler and push-all with the
// paper's interleaving scheduler; no run cache, every load simulated.
#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/critical_css.h"
#include "core/memo.h"
#include "core/runner.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "web/profiles.h"

namespace perfbench {
namespace {

using namespace h2push;

// Set-up is repeated and its median reported, so that one slow repetition
// does not move setup_s.
constexpr int kSetupRepeats = 5;
// The sites are the paper's w1..w20 (Table 1), fixed so that a run's cost
// does not hinge on which sites a seed would draw: a random population of
// a few dozen sites moves the median page-load time by over 10% from seed
// to seed. The seed drives each load's simulated randomness (compute
// jitter, server think time) and the order of the sweep.
constexpr int kSimSites = 20;
// Loads re-simulated after the timed loop to check determinism.
constexpr std::size_t kDeterminismChecks = 6;
// Loads run on a ParallelRunner with one worker per CPU, as the repository's
// sweep harnesses run them (--jobs). On a shared 4-vCPU VM a single-threaded
// sweep ran up to 40% slower for tens of seconds at a time while a busy loop
// on another CPU kept its speed; loads spread over every CPU average those
// states. Each batch handed to the runner is this many passes over all
// tasks.
constexpr std::size_t kPassesPerBatch = 4;

int cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(CPU_COUNT(&set), 1);
}

std::vector<web::Site> paper_sites(int count) {
  std::vector<web::Site> out;
  for (int i = 1; i <= count; ++i) out.push_back(web::make_w_site(i).site);
  return out;
}

std::vector<core::Strategy> arms_for(const web::Site& site) {
  const auto order = web::pushable_urls(site);  // document order
  core::Strategy interleaved = core::push_all(site, order);
  interleaved.name = "push-all-interleaved";
  interleaved.interleaving = true;
  interleaved.interleave_offset = core::head_end_offset(site);
  return {core::no_push(), core::push_all(site, order), std::move(interleaved)};
}

std::vector<const replay::RecordStore*> stores_of(
    const std::vector<web::Site>& sites) {
  std::vector<const replay::RecordStore*> out;
  for (const auto& site : sites) out.push_back(site.store.get());
  return out;
}

void check_load(Result& result, const browser::PageLoadResult& r,
                const core::Strategy& strategy, const std::string& what) {
  bool ok = r.complete && r.plt_ms > 0 && r.speed_index_ms > 0 &&
            r.num_requests > 0;
  if (strategy.push_urls.empty()) {
    ok = ok && r.bytes_pushed == 0 && r.num_pushed == 0;
  } else {
    ok = ok && r.num_pushed > 0 && r.bytes_pushed > 0;
  }
  result.check(ok, "bad page load: " + what);
  if (!ok) ++result.failed;
}

/// Per-layer work counts summed over traced page loads.
struct LayerCounts {
  double loads = 0;
  double events = 0;
  double packets = 0;
  double retransmits = 0;
  double frames = 0;
  double push_promises = 0;
  double pushes_cancelled = 0;
  double pushed_bytes = 0;
  double pushed_before_request = 0;
  double downlink_idle = 0;
  double run_span = 0;

  void add(std::size_t trace_events, const trace::TraceSummary& s) {
    loads += 1;
    events += static_cast<double>(trace_events);
    packets += static_cast<double>(s.packets_delivered);
    retransmits += static_cast<double>(s.retransmissions);
    for (const auto& [type, n] : s.frames_sent) {
      frames += static_cast<double>(n);
    }
    for (const auto& [type, n] : s.frames_received) {
      frames += static_cast<double>(n);
    }
    push_promises += static_cast<double>(s.push_promises);
    pushes_cancelled += static_cast<double>(s.pushes_cancelled);
    pushed_bytes += static_cast<double>(s.bytes_pushed);
    pushed_before_request += static_cast<double>(s.bytes_pushed_before_request);
    downlink_idle += static_cast<double>(s.downlink_idle);
    run_span += static_cast<double>(s.run_span);
  }

  void report(Result& result) const {
    const double n = std::max(loads, 1.0);
    result.metrics["trace_events_per_load"] = events / n;
    result.metrics["link_packets_per_load"] = packets / n;
    result.metrics["tcp_retransmits_per_load"] = retransmits / n;
    result.metrics["h2_frames_per_load"] = frames / n;
    result.metrics["push_promises_per_load"] = push_promises / n;
    result.metrics["push_cancelled_per_load"] = pushes_cancelled / n;
    result.metrics["push_kb_per_load"] = pushed_bytes / 1024.0 / n;
    result.metrics["push_early_share"] =
        pushed_bytes > 0 ? pushed_before_request / pushed_bytes : 0.0;
    result.metrics["downlink_idle_share"] =
        run_span > 0 ? downlink_idle / run_span : 0.0;
  }
};

}  // namespace

int run_sim(const Options& options, Result& result) {
  std::vector<web::Site> sites;
  std::vector<std::vector<core::Strategy>> arms;
  std::vector<double> setup_s;
  util::Hash128 first_hash{};
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const double t0 = now_s();
    sites = paper_sites(kSimSites);
    arms.clear();
    for (const auto& site : sites) arms.push_back(arms_for(site));
    setup_s.push_back(now_s() - t0);
    const util::Hash128 hash = core::site_content_hash(sites.back());
    if (rep == 0) first_hash = hash;
    result.check(hash == first_hash, "site generation not deterministic");
  }

  struct Task {
    std::size_t site;
    std::size_t arm;
  };
  std::vector<Task> tasks;
  for (std::size_t s = 0; s < sites.size(); ++s) {
    for (std::size_t a = 0; a < arms[s].size(); ++a) tasks.push_back({s, a});
  }
  util::Rng rng(options.seed ^ 0x51a7c01dULL);
  for (std::size_t i = tasks.size(); i > 1; --i) {
    std::swap(tasks[i - 1], tasks[rng.index(i)]);
  }

  /// What a worker leaves for the sequential checks after its load.
  struct Sample {
    double ms = 0;
    browser::PageLoadResult load;
    std::size_t trace_events = 0;
    trace::TraceSummary trace;
  };
  core::RunConfig cfg;
  cfg.seed = options.seed;
  core::ParallelRunner runner(cpus_available());
  std::vector<Sample> batch(tasks.size() * kPassesPerBatch);
  std::vector<std::string> first_payloads;
  LayerCounts counts;
  std::size_t done = 0;
  const double start = now_s();
  RunTimer timer(cpu_s);
  timer.begin();
  while (now_s() < start + options.seconds) {
    runner.for_each(batch.size(), [&](std::size_t i) {
      const std::size_t n = done + i;
      const Task task = tasks[n % tasks.size()];
      core::RunConfig c = cfg;
      c.run_index = static_cast<int>(n / tasks.size());
      trace::TraceRecorder recorder;
      c.trace = options.trace ? &recorder : nullptr;
      Sample& out = batch[i];
      const double t0 = now_s();
      out.load = core::run_page_load(sites[task.site], arms[task.site][task.arm],
                                     c);
      out.ms = (now_s() - t0) * 1e3;
      if (options.trace) {
        out.trace_events = recorder.size();
        out.trace = recorder.summary();
      }
    });
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const Task task = tasks[(done + i) % tasks.size()];
      const Sample& sample = batch[i];
      timer.add(sample.ms);
      ++result.attempted;
      check_load(result, sample.load, arms[task.site][task.arm],
                 sites[task.site].name + " " + arms[task.site][task.arm].name);
      if (options.trace) counts.add(sample.trace_events, sample.trace);
      if (first_payloads.size() < kDeterminismChecks) {
        first_payloads.push_back(core::RunCache::serialize(sample.load));
      }
    }
    done += batch.size();
  }
  timer.end();

  for (std::size_t i = 0; i < first_payloads.size(); ++i) {
    const Task task = tasks[i % tasks.size()];
    cfg.run_index = static_cast<int>(i / tasks.size());
    const auto again = core::run_page_load(sites[task.site],
                                           arms[task.site][task.arm], cfg);
    result.check(core::RunCache::serialize(again) == first_payloads[i],
                 "page load not deterministic: " + sites[task.site].name);
  }

  if (options.trace) {
    counts.report(result);
    simulator_layer_probes(stores_of(sites), result);
  } else {
    timer.report(result);
    result.metrics["setup_s"] = median_of(setup_s);
  }
  std::fprintf(stderr,
               "sim: %llu loads of %zu sites x 3 arms in %.1fs on %d workers\n",
               static_cast<unsigned long long>(result.attempted), sites.size(),
               options.seconds, runner.jobs());
  return 0;
}

}  // namespace perfbench

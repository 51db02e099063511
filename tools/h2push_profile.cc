// h2push_profile: where a cold simulated page load spends its CPU, by layer.
//
//   h2push_profile [--seconds N]     (default 10)
//
// Runs the perfbench sim_cold mix (w1..w20 under no push, push-all and
// interleaved push-all, cache off) on one thread for N seconds under a 1 ms
// ITIMER_PROF. Each sample's stack is charged to its innermost h2push::
// frame, so memcpy and malloc time lands on the caller that asked for it.
// Prints each layer's share (the namespace under h2push::) and the top 20
// charged frames. Needs no instrumentation and no build option: the binary
// exports its symbols so dladdr can name them. Exits 1 unless the sim, h2
// and browser layers are all sampled and most samples are named.
#include <cxxabi.h>
#include <dlfcn.h>
#include <execinfo.h>
#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "core/critical_css.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "web/profiles.h"

namespace {

constexpr int kDepth = 32;
struct Sample {
  void* frames[kDepth];
  int depth;
};
std::vector<Sample> g_samples;  // sized before the timer starts
volatile std::sig_atomic_t g_count = 0;

void on_prof(int) {
  if (static_cast<std::size_t>(g_count) >= g_samples.size()) return;
  Sample& s = g_samples[static_cast<std::size_t>(g_count)];
  s.depth = backtrace(s.frames, kDepth);
  g_count = g_count + 1;
}

/// The demangled function at `addr` when it is in namespace h2push, else "".
std::string h2push_function(void* addr) {
  Dl_info info;
  if (dladdr(addr, &info) == 0 || info.dli_sname == nullptr) return "";
  int status = 0;
  char* demangled = abi::__cxa_demangle(info.dli_sname, nullptr, nullptr,
                                        &status);
  std::string name = status == 0 ? demangled : info.dli_sname;
  std::free(demangled);
  // Skip a template function's return type: the qualified name starts at
  // the first "h2push::" outside brackets, at the start or after a space.
  int depth = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    if (c == '<' || c == '(') ++depth;
    if (c == '>' || c == ')') --depth;
    if (depth == 0 && (i == 0 || name[i - 1] == ' ') &&
        name.compare(i, 8, "h2push::") == 0) {
      return name.substr(i);
    }
  }
  return "";
}

}  // namespace

int main(int argc, char** argv) {
  double seconds = 10;
  if (argc == 3 && std::strcmp(argv[1], "--seconds") == 0) {
    seconds = std::atof(argv[2]);
  } else if (argc != 1) {
    std::fprintf(stderr, "usage: %s [--seconds N]\n", argv[0]);
    return 1;
  }
  using namespace h2push;
  std::vector<web::Site> sites;
  std::vector<core::Strategy> arms;
  std::vector<std::size_t> site_of;
  for (int w = 1; w <= 20; ++w) sites.push_back(web::make_w_site(w).site);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const auto order = web::pushable_urls(sites[i]);
    core::Strategy interleaved = core::push_all(sites[i], order);
    interleaved.interleaving = true;
    interleaved.interleave_offset = core::head_end_offset(sites[i]);
    for (auto arm : {core::no_push(), core::push_all(sites[i], order),
                     std::move(interleaved)}) {
      arms.push_back(std::move(arm));
      site_of.push_back(i);
    }
  }

  // Room for 1.5 samples per ms of the run: CPU time, at most wall time.
  g_samples.resize(static_cast<std::size_t>(seconds * 1500) + 1000);
  void* warm[kDepth];
  backtrace(warm, kDepth);  // loads the unwinder outside the handler
  std::signal(SIGPROF, on_prof);
  const itimerval every_ms{{0, 1000}, {0, 1000}};
  setitimer(ITIMER_PROF, &every_ms, nullptr);
  const auto start = std::chrono::steady_clock::now();
  std::size_t loads = 0;
  core::RunConfig config;
  while (std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start).count() < seconds) {
    const std::size_t task = loads % arms.size();
    config.run_index = static_cast<int>(loads / arms.size());
    core::run_page_load(sites[site_of[task]], arms[task], config);
    ++loads;
  }
  const itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                 usage.ru_stime.tv_usec);

  const auto total = static_cast<std::size_t>(g_count);
  std::map<void*, std::string> names;  // resolved once per address
  std::map<std::string, std::size_t> by_layer, by_frame;
  for (std::size_t i = 0; i < total; ++i) {
    std::string charged;
    // Frame 0 is this handler, frame 1 the signal trampoline.
    for (int f = 2; f < g_samples[i].depth && charged.empty(); ++f) {
      void* addr = g_samples[i].frames[f];
      auto [it, fresh] = names.try_emplace(addr);
      if (fresh) it->second = h2push_function(addr);
      charged = it->second;
    }
    const std::size_t end = charged.find("::", 8);
    if (charged.empty()) charged = "(outside h2push)";
    ++by_layer[end == std::string::npos ? charged : charged.substr(8, end - 8)];
    ++by_frame[charged];
  }
  const auto print_top = [total](const std::map<std::string, std::size_t>& m,
                                 std::size_t n, const char* what) {
    std::vector<std::pair<std::size_t, std::string>> rows;
    for (const auto& [name, count] : m) rows.emplace_back(count, name);
    std::sort(rows.rbegin(), rows.rend());
    std::printf("\n| %s | samples | share |\n|---|---|---|\n", what);
    for (std::size_t i = 0; i < rows.size() && i < n; ++i) {
      std::printf("| `%.110s` | %zu | %.1f%% |\n", rows[i].second.c_str(),
                  rows[i].first, 100.0 * static_cast<double>(rows[i].first) /
                                     static_cast<double>(total));
    }
  };
  // The kernel delivers the timer on its scheduler tick, so a sample may
  // stand for more than 1 ms.
  std::printf("%zu loads, %zu samples over %.1f s of CPU\n", loads, total,
              cpu_s);
  print_top(by_layer, by_layer.size(), "layer");
  print_top(by_frame, 20, "innermost h2push frame");
  // A load runs through the simulator, the h2 codec and the browser, and
  // most of its time is inside h2push: if frames cannot be named (symbols
  // not exported), every sample lands outside.
  const std::size_t outside = by_layer["(outside h2push)"];
  for (const char* layer : {"sim", "h2", "browser"}) {
    if (by_layer[layer] == 0) {
      std::printf("\nFAILED: no sample charged to layer %s\n", layer);
      return 1;
    }
  }
  if (2 * outside >= total) {
    std::printf("\nFAILED: %zu of %zu samples outside h2push\n", outside,
                total);
    return 1;
  }
  std::printf("\nsim, h2 and browser sampled; %zu of %zu samples inside "
              "h2push\n", total - outside, total);
  return 0;
}

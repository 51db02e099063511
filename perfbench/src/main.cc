// perfbench — the measuring half of the benchmark (perfbench/run.py is the
// orchestrating half). One subcommand per workload:
//
//   perfbench sim  --seed N --seconds S --trace 0|1
//   perfbench load --seed N --seconds S --trace 0|1 --port P
//                  --server-pid PID --profile P --sites N --corpus-seed N
//
// The last stdout line is one JSON object: correct, attempted, failed,
// errors and metrics (raw values; run.py attaches units and picks the set).
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "stats/descriptive.h"

namespace perfbench {

double median_of(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : h2push::stats::median(samples);
}

void RunTimer::report(Result& result) const {
  result.metrics["p50_ms"] = h2push::stats::quantile(latencies_ms_, 0.50);
  result.metrics["p90_ms"] = h2push::stats::quantile(latencies_ms_, 0.90);
  result.metrics["cpu_us_per_op"] =
      latencies_ms_.empty() ? 0.0
                            : (cpu_end_ - cpu_begin_) * 1e6 /
                                  static_cast<double>(latencies_ms_.size());
}

namespace {

void print_json_string(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::printf("\\%c", c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", c);
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

void print_result(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"errors\": [",
              result.failed_checks == 0 ? "true" : "false", result.attempted,
              result.failed);
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    if (i > 0) std::printf(", ");
    print_json_string(result.errors[i]);
  }
  std::printf("], \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : result.metrics) {
    std::printf("%s", first ? "" : ", ");
    first = false;
    print_json_string(name);
    std::printf(": %.17g", value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench sim|load --seed N --seconds S "
               "--trace 0|1 [--port P --server-pid PID --profile P "
               "--sites N --corpus-seed N]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage();
    const char* value = argv[++i];
    if (flag == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value);
    } else if (flag == "--trace") {
      o.trace = std::atoi(value) != 0;
    } else if (flag == "--port") {
      o.port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (flag == "--server-pid") {
      o.server_pid = std::atoi(value);
    } else if (flag == "--corpus-seed") {
      o.corpus_seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--profile") {
      o.profile = value;
    } else if (flag == "--sites") {
      o.sites = std::atoi(value);
    } else {
      usage();
    }
  }
  if (o.seconds <= 0) usage();
  if (std::strcmp(argv[1], "load") == 0 &&
      (o.port == 0 || o.server_pid <= 0 || o.profile.empty() || o.sites <= 0 ||
       o.corpus_seed == 0)) {
    usage();
  }
  return o;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) usage();
  const std::string workload = argv[1];
  const Options options = parse(argc, argv);
  Result result;
  int status = 0;
  try {
    if (workload == "sim") {
      status = run_sim(options, result);
    } else if (workload == "load") {
      status = run_open_loop(options, result);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (status != 0) return status;
  print_result(result);
  return 0;
}

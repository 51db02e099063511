// h2pushd — live HTTP/2 (cleartext-framing) push daemon.
//
// Serves a deterministically generated corpus (same generator the simulator
// uses) over real TCP with the repo's own H2 codec, replay server, and
// stream schedulers. Pair it with h2pushload, nghttp, or curl --http2-prior-
// knowledge:
//
//   h2pushd --port 8443 --sites 4 --scheduler interleaving --push-strategy all
//
// SIGTERM/SIGINT trigger a graceful drain: listeners stop, every connection
// gets a GOAWAY, streams finish, then the process exits with a stats line.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "net/client.h"
#include "net/corpus.h"
#include "net/server.h"
#include "util/posix.h"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options]\n"
      "  --port <n>             listen port (default 0 = ephemeral)\n"
      "  --bind <addr>          bind address (default 127.0.0.1)\n"
      "  --threads <n>          accept/serve threads, SO_REUSEPORT (default 1)\n"
      "  --profile <name>       corpus profile: top100 | random100\n"
      "  --sites <n>            generated sites to serve (default 4)\n"
      "  --seed <n>             corpus seed (default 1)\n"
      "  --scheduler <s>        parent-first | interleaving\n"
      "  --push-strategy <s>    none | all | first-n:<n>\n"
      "  --interleave-offset <n> bytes of parent HTML before interleaving\n"
      "  --default-authority <h> serve this :authority to clients that send\n"
      "                         an IP:port authority (nghttp, curl)\n"
      "  --header-timeout-ms <n> accept -> first bytes deadline\n"
      "  --idle-timeout-ms <n>  idle connection deadline\n"
      "  --trace-dir <dir>      write a Perfetto JSON per connection\n",
      argv0);
}

bool next_arg(int argc, char** argv, int& i, const char* name,
              std::string& out) {
  if (std::strcmp(argv[i], name) != 0) return false;
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s needs a value\n", name);
    std::exit(2);
  }
  out = argv[++i];
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace h2push;
  net::LiveCorpusConfig corpus_config;
  net::ServerConfig server_config;
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 ||
        std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (next_arg(argc, argv, i, "--port", value)) {
      server_config.port = static_cast<std::uint16_t>(std::atoi(value.c_str()));
    } else if (next_arg(argc, argv, i, "--bind", value)) {
      server_config.bind_addr = value;
    } else if (next_arg(argc, argv, i, "--threads", value)) {
      server_config.threads = std::atoi(value.c_str());
    } else if (next_arg(argc, argv, i, "--profile", value)) {
      corpus_config.profile = value;
    } else if (next_arg(argc, argv, i, "--sites", value)) {
      corpus_config.sites = std::atoi(value.c_str());
    } else if (next_arg(argc, argv, i, "--seed", value)) {
      corpus_config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (next_arg(argc, argv, i, "--scheduler", value)) {
      if (value == "parent-first") {
        corpus_config.scheduler = net::SchedulerKind::kParentFirst;
      } else if (value == "interleaving") {
        corpus_config.scheduler = net::SchedulerKind::kInterleaving;
      } else {
        std::fprintf(stderr, "unknown scheduler: %s\n", value.c_str());
        return 2;
      }
    } else if (next_arg(argc, argv, i, "--push-strategy", value)) {
      const auto parsed = net::PushStrategySpec::parse(value);
      if (!parsed) {
        std::fprintf(stderr, "bad push strategy: %s\n", value.c_str());
        return 2;
      }
      corpus_config.push = *parsed;
    } else if (next_arg(argc, argv, i, "--interleave-offset", value)) {
      corpus_config.interleave_offset =
          static_cast<std::size_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else if (next_arg(argc, argv, i, "--default-authority", value)) {
      server_config.default_authority = value;
    } else if (next_arg(argc, argv, i, "--header-timeout-ms", value)) {
      server_config.header_timeout_ms =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (next_arg(argc, argv, i, "--idle-timeout-ms", value)) {
      server_config.idle_timeout_ms =
          std::strtoull(value.c_str(), nullptr, 10);
    } else if (next_arg(argc, argv, i, "--trace-dir", value)) {
      server_config.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  util::posix::ignore_sigpipe();
  // Block the shutdown signals before any server thread exists so they are
  // delivered to sigwait below, not to a serving thread.
  sigset_t sigs;
  sigemptyset(&sigs);
  sigaddset(&sigs, SIGTERM);
  sigaddset(&sigs, SIGINT);
  pthread_sigmask(SIG_BLOCK, &sigs, nullptr);

  std::fprintf(stderr, "h2pushd: building corpus profile=%s sites=%d seed=%llu\n",
               corpus_config.profile.c_str(), corpus_config.sites,
               static_cast<unsigned long long>(corpus_config.seed));
  const net::LiveCorpus corpus = net::build_live_corpus(corpus_config);
  server_config.store = &corpus.store;
  server_config.origins = &corpus.origins;
  server_config.policies = &corpus.policies;
  if (server_config.default_authority.empty() &&
      !corpus.landing_pages.empty()) {
    server_config.default_authority = corpus.landing_pages.front().first;
  }

  net::Server server(server_config);
  if (!server.start()) {
    std::fprintf(stderr, "h2pushd: bind failed: %s\n", server.error().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "h2pushd: listening on %s:%u (%d threads, %zu urls, "
               "scheduler=%s, push=%s)\n",
               server_config.bind_addr.c_str(), server.port(),
               server_config.threads, corpus.all_urls.size(),
               corpus_config.scheduler == net::SchedulerKind::kInterleaving
                   ? "interleaving"
                   : "parent-first",
               corpus_config.push.to_string().c_str());
  for (const auto& [host, path] : corpus.landing_pages) {
    std::fprintf(stderr, "h2pushd:   site https://%s%s\n", host.c_str(),
                 path.c_str());
  }

  int sig = 0;
  sigwait(&sigs, &sig);
  std::fprintf(stderr, "h2pushd: signal %d, draining...\n", sig);
  server.shutdown(5000);
  const net::ServerStats stats = server.stats();
  std::fprintf(stderr,
               "h2pushd: done. accepted=%llu closed=%llu requests=%llu "
               "bytes_out=%llu timeouts=%llu\n",
               static_cast<unsigned long long>(stats.connections_accepted),
               static_cast<unsigned long long>(stats.connections_closed),
               static_cast<unsigned long long>(stats.requests_served),
               static_cast<unsigned long long>(stats.bytes_written),
               static_cast<unsigned long long>(stats.timeouts));
  return 0;
}

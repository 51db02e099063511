// Open-loop HTTP/2 page visits against a running h2pushd.
//
// The traffic is derived from the corpus the daemon serves. Each visit is
// one user loading one site's page: it opens a connection, requests the
// landing page, and once that has arrived in full requests every other
// object of the site that the server has not promised on the connection,
// as a browser that has parsed the document would. The daemon pushes on the
// landing-page request, so every visit exercises the push path and the
// stream scheduler. The connection closes when the visit is done.
//
// Visits arrive as a Poisson process at a fixed rate, independent of how
// fast pages come back, so a server stall makes later visits wait instead
// of silently lowering the offered load. A visit's latency runs from when
// it was due, not from when the generator got to it, which corrects for
// coordinated omission; how late the generator itself ran is reported
// separately. The client rebuilds the daemon's corpus from the same
// (profile, sites, corpus seed) and checks every response body and every
// pushed body byte for byte against the replay store. The run's --seed
// drives the arrival times and which site each visit loads.
//
// One thread drives all connections through epoll; a timerfd armed at the
// next arrival gives sub-millisecond start times.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <dirent.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench.h"
#include "h2/connection.h"
#include "http/message.h"
#include "net/corpus.h"
#include "net/event_loop.h"
#include "stats/descriptive.h"
#include "util/posix.h"
#include "util/rng.h"
#include "web/corpus.h"

namespace perfbench {
namespace {

using namespace h2push;

using UrlKey = std::pair<std::string, std::string>;  // (host, path)

// Visits started in the first second warm the daemon's caches; they are
// sent and checked but not timed.
constexpr double kWarmupSeconds = 1.0;
// Visits still unfinished this long after the last arrival count as failed.
constexpr double kDrainSeconds = 5.0;
// Offered load. One visit of the 24-site top100 corpus is about 68 requests
// and 17 pushes, 1.7 MB in all. Measured on a 4-vCPU VM, daemon and
// generator on two CPUs each: a visit's p50 and p99 are the same at 40 and
// 100 visits/s (2.7-2.9 and 8.4-8.7 ms) and rise at 200/s (3.6 and 39 ms),
// where the single-threaded generator nears its limit. 100 visits/s is half
// that knee and keeps the daemon at about 9% of its two CPUs, so latency
// reflects service time, not queueing.
constexpr double kVisitsPerSecond = 100;
// Requests a visit keeps open at once; later ones wait for a free stream,
// and the wait counts in the visit's latency. h2o, the server of the paper's
// testbed, advertises 100 concurrent streams.
constexpr std::size_t kMaxOpenStreams = 100;
constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::size_t kWriteChunk = 256 * 1024;

struct Arrival {
  std::uint64_t due_ns;  ///< since the start of the run
  std::uint32_t site;
};

/// What one site visit fetches.
struct SitePlan {
  UrlKey landing;
  std::vector<UrlKey> subresources;  ///< every other object of the site
};

struct Stats {
  std::uint64_t visits_done = 0;
  std::uint64_t visits_failed = 0;
  std::uint64_t requests_sent = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t pushes_done = 0;
  std::uint64_t pushes_failed = 0;
  std::uint64_t push_promises = 0;
  std::vector<double> lag_ms;  ///< start time - due time, timed visits
};

/// Expected bytes of one stream, compared as they arrive.
struct Expect {
  const std::string* body = nullptr;
  std::size_t offset = 0;
  bool ok = true;
  int status = 0;

  void consume(std::span<const std::uint8_t> data) {
    if (body == nullptr || offset + data.size() > body->size() ||
        std::memcmp(body->data() + offset, data.data(), data.size()) != 0) {
      ok = false;
    }
    offset += data.size();
  }
  bool complete() const {
    return ok && status == 200 && body != nullptr && offset == body->size();
  }
};

class Client;

/// One page visit on its own connection.
class Visit {
 public:
  Visit(Client& client, int fd, const Arrival& arrival, bool timed);
  ~Visit();
  Visit(const Visit&) = delete;
  Visit& operator=(const Visit&) = delete;

  /// Every stream of the visit has closed, or the connection failed.
  bool over() const { return dead_ || (landed_ && idle()); }
  bool failed() const { return dead_ || failed_streams_ > 0; }
  bool timed() const { return timed_; }
  std::uint64_t due_ns() const { return due_ns_; }

  void on_events(std::uint32_t events);

 private:
  bool idle() const {
    return pending_.empty() && requests_.empty() && pushes_.empty();
  }
  /// Submit a GET for `url`; its stream id.
  std::uint32_t request(const UrlKey& url);
  /// Submit waiting requests while streams are free, then write.
  void advance();
  void pump();
  void fail_all();

  Client& client_;
  int fd_;
  std::uint64_t due_ns_;
  const SitePlan& plan_;
  bool timed_;
  bool landed_ = false;  ///< the landing page has arrived in full
  bool dead_ = false;
  bool want_out_ = false;
  std::size_t failed_streams_ = 0;
  std::unique_ptr<h2::Connection> codec_;
  std::vector<std::uint8_t> out_;
  std::size_t out_off_ = 0;
  std::set<UrlKey> promised_;
  std::vector<const UrlKey*> pending_;  ///< to request, in reverse order
  std::unordered_map<std::uint32_t, Expect> requests_;
  std::unordered_map<std::uint32_t, Expect> pushes_;
  std::uint32_t landing_stream_ = 0;
};

class Client {
 public:
  Client(const net::LiveCorpus& corpus, const std::vector<SitePlan>& plans,
         Stats& stats, std::uint16_t port)
      : corpus_(corpus), plans_(plans), stats_(stats), port_(port) {
    epoll_ = ::epoll_create1(EPOLL_CLOEXEC);
  }
  ~Client() {
    if (epoll_ >= 0) util::posix::close_retry(epoll_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  const SitePlan& plan(std::uint32_t site) const { return plans_[site]; }
  Stats& stats() { return stats_; }
  int epoll() const { return epoll_; }

  const std::string* expected_body(std::string_view host,
                                   std::string_view path) const {
    const auto* e = corpus_.store.find(std::string(host), std::string(path));
    return e == nullptr ? nullptr : e->body.get();
  }

  /// Start a visit on a new connection; throws when it cannot connect.
  std::unique_ptr<Visit> start(const Arrival& arrival, bool timed);

 private:
  const net::LiveCorpus& corpus_;
  const std::vector<SitePlan>& plans_;
  Stats& stats_;
  std::uint16_t port_;
  int epoll_ = -1;
};

Visit::Visit(Client& client, int fd, const Arrival& arrival, bool timed)
    : client_(client),
      fd_(fd),
      due_ns_(arrival.due_ns),
      plan_(client.plan(arrival.site)),
      timed_(timed) {
  h2::Connection::Config cc;
  cc.role = h2::Role::kClient;
  cc.enable_push = true;
  cc.connection_window_bonus = 16 * 1024 * 1024;
  h2::Connection::Callbacks cbs;
  cbs.on_headers = [this](std::uint32_t stream, http::HeaderBlock headers,
                          bool) {
    const int status =
        std::atoi(std::string(http::find_header(headers, ":status")).c_str());
    if (auto it = requests_.find(stream); it != requests_.end()) {
      it->second.status = status;
    } else if (auto p = pushes_.find(stream); p != pushes_.end()) {
      p->second.status = status;
    }
  };
  cbs.on_data = [this](std::uint32_t stream,
                       std::span<const std::uint8_t> data, bool) {
    if (auto it = requests_.find(stream); it != requests_.end()) {
      it->second.consume(data);
    } else if (auto p = pushes_.find(stream); p != pushes_.end()) {
      p->second.consume(data);
    }
  };
  cbs.on_push_promise = [this](std::uint32_t, std::uint32_t promised,
                               http::HeaderBlock headers) {
    ++client_.stats().push_promises;
    UrlKey url{std::string(http::find_header(headers, ":authority")),
               std::string(http::find_header(headers, ":path"))};
    Expect expect;
    expect.body = client_.expected_body(url.first, url.second);
    pushes_[promised] = expect;
    promised_.insert(std::move(url));
  };
  cbs.on_rst = [this](std::uint32_t stream, h2::ErrorCode) {
    if (auto it = requests_.find(stream); it != requests_.end()) {
      it->second.ok = false;
    } else if (auto p = pushes_.find(stream); p != pushes_.end()) {
      p->second.ok = false;
    }
  };
  cbs.on_stream_closed = [this](std::uint32_t stream) {
    Stats& stats = client_.stats();
    if (auto it = requests_.find(stream); it != requests_.end()) {
      const bool ok = it->second.complete();
      if (!ok) {
        ++stats.requests_failed;
        ++failed_streams_;
      }
      requests_.erase(it);
      if (stream == landing_stream_ && ok) {
        landed_ = true;
        for (auto url = plan_.subresources.rbegin();
             url != plan_.subresources.rend(); ++url) {
          if (!promised_.contains(*url)) pending_.push_back(&*url);
        }
      } else if (stream == landing_stream_) {
        fail_all();
      }
    } else if (auto p = pushes_.find(stream); p != pushes_.end()) {
      if (p->second.complete()) {
        ++stats.pushes_done;
      } else {
        ++stats.pushes_failed;
        ++failed_streams_;
      }
      pushes_.erase(p);
    }
  };
  cbs.on_connection_error = [this](const std::string& message) {
    std::fprintf(stderr, "load: connection error: %s\n", message.c_str());
    fail_all();
  };
  codec_ = std::make_unique<h2::Connection>(cc, std::move(cbs));
  codec_->start();
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;
  ::epoll_ctl(client_.epoll(), EPOLL_CTL_ADD, fd_, &ev);
  landing_stream_ = request(plan_.landing);
  pump();
}

Visit::~Visit() {
  fail_all();  // counts streams still open when the run gave up on them
  util::posix::close_retry(fd_);
}

std::uint32_t Visit::request(const UrlKey& url) {
  const auto& [host, path] = url;
  http::Request req;
  req.url = http::Url{"https", host, 443, path};
  const std::uint32_t id = codec_->submit_request(req.to_h2_headers());
  requests_[id].body = client_.expected_body(host, path);
  ++client_.stats().requests_sent;
  return id;
}

void Visit::fail_all() {
  if (dead_) return;
  dead_ = true;
  client_.stats().requests_failed += requests_.size() + pending_.size();
  client_.stats().pushes_failed += pushes_.size();
  requests_.clear();
  pushes_.clear();
  pending_.clear();
  ::epoll_ctl(client_.epoll(), EPOLL_CTL_DEL, fd_, nullptr);
}

void Visit::advance() {
  while (!dead_ && !pending_.empty() && requests_.size() < kMaxOpenStreams) {
    request(*pending_.back());
    pending_.pop_back();
  }
  pump();
}

void Visit::pump() {
  while (!dead_) {
    if (out_off_ == out_.size()) {
      out_.clear();
      out_off_ = 0;
      if (!codec_->want_write() ||
          codec_->produce_into(out_, kWriteChunk) == 0) {
        break;
      }
    }
    const ssize_t n = util::posix::send_retry(fd_, out_.data() + out_off_,
                                              out_.size() - out_off_);
    if (n > 0) {
      out_off_ += static_cast<std::size_t>(n);
    } else if (n < 0 && util::posix::would_block(errno)) {
      break;
    } else {
      fail_all();
      return;
    }
  }
  const bool want_out = out_off_ < out_.size();
  if (!dead_ && want_out != want_out_) {
    want_out_ = want_out;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.ptr = this;
    ::epoll_ctl(client_.epoll(), EPOLL_CTL_MOD, fd_, &ev);
  }
}

void Visit::on_events(std::uint32_t events) {
  if (dead_) return;
  if ((events & EPOLLIN) != 0) {
    std::uint8_t buf[kReadChunk];
    while (!dead_) {
      const ssize_t n = util::posix::read_retry(fd_, buf, sizeof(buf));
      if (n > 0) {
        codec_->receive({buf, static_cast<std::size_t>(n)});
        continue;
      }
      if (n < 0 && util::posix::would_block(errno)) break;
      fail_all();  // EOF or error
      return;
    }
  } else if ((events & (EPOLLERR | EPOLLHUP)) != 0) {
    fail_all();
    return;
  }
  advance();
}

std::unique_ptr<Visit> Client::start(const Arrival& arrival, bool timed) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port_);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (fd < 0 || util::posix::connect_retry(
                    fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) < 0) {
    const std::string error = std::strerror(errno);
    if (fd >= 0) util::posix::close_retry(fd);
    throw std::runtime_error("connect to port " + std::to_string(port_) +
                             ": " + error);
  }
  util::posix::set_tcp_nodelay(fd);
  util::posix::set_nonblocking(fd);
  return std::make_unique<Visit>(*this, fd, arrival, timed);
}

/// CPU seconds used so far by every thread of process `pid`.
double process_cpu_s(int pid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* tasks = ::opendir(dir.c_str());
  if (tasks == nullptr) return 0;
  double total = 0;
  while (const dirent* task = ::readdir(tasks)) {
    if (task->d_name[0] == '.') continue;
    std::ifstream schedstat(dir + "/" + task->d_name + "/schedstat");
    std::uint64_t run_ns = 0;
    if (schedstat >> run_ns) total += static_cast<double>(run_ns) * 1e-9;
  }
  ::closedir(tasks);
  return total;
}

/// The visit plan of each site, in the daemon's site order.
std::vector<SitePlan> site_plans(const Options& o) {
  const web::PopulationProfile profile =
      o.profile == "random100" ? web::PopulationProfile::random100()
                               : web::PopulationProfile::top100();
  std::vector<SitePlan> plans;
  for (const auto& site :
       web::generate_population(profile, o.sites, o.corpus_seed)) {
    SitePlan plan;
    plan.landing = {site.main_url.host, site.main_url.path};
    for (const auto& e : site.store->all()) {
      UrlKey url{e.request.url.host, e.request.url.path};
      if (url != plan.landing) plan.subresources.push_back(std::move(url));
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<Arrival> make_arrivals(const Options& o, std::size_t sites) {
  util::Rng rng(o.seed ^ 0x0be11ULL);
  std::vector<Arrival> out;
  const double end_s = kWarmupSeconds + o.seconds;
  double t = 0;
  while (true) {
    t += rng.exponential(1.0 / kVisitsPerSecond);
    if (t >= end_s) break;
    out.push_back({static_cast<std::uint64_t>(t * 1e9),
                   static_cast<std::uint32_t>(rng.index(sites))});
  }
  return out;
}

}  // namespace

int run_open_loop(const Options& options, Result& result) {
  util::posix::ignore_sigpipe();
  // Wake at the arrival time, not up to 50us after it.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  // The daemon's push strategy and scheduler decide what it sends, not
  // what it holds, so the store needs only the corpus identity.
  net::LiveCorpusConfig cc;
  cc.profile = options.profile;
  cc.sites = options.sites;
  cc.seed = options.corpus_seed;
  const net::LiveCorpus corpus = net::build_live_corpus(cc);
  const std::vector<SitePlan> plans = site_plans(options);
  const std::vector<Arrival> arrivals = make_arrivals(options, plans.size());

  Stats stats;
  const std::uint64_t start_ns = net::EventLoop::clock_ns() + 50'000'000;
  const std::uint64_t timed_from_ns =
      start_ns + static_cast<std::uint64_t>(kWarmupSeconds * 1e9);
  // CPU per visit is the daemon's, not the load generator's, from the end
  // of the warm-up until the last visit has finished.
  RunTimer timer([pid = options.server_pid] { return process_cpu_s(pid); });
  bool timing = false;
  Client client(corpus, plans, stats, options.port);
  const int tfd = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  epoll_event tev{};
  tev.events = EPOLLIN;
  tev.data.ptr = nullptr;
  ::epoll_ctl(client.epoll(), EPOLL_CTL_ADD, tfd, &tev);

  std::vector<std::unique_ptr<Visit>> visits;
  std::size_t next = 0;
  const std::uint64_t last_due =
      start_ns +
      static_cast<std::uint64_t>((kWarmupSeconds + options.seconds) * 1e9);
  const std::uint64_t give_up =
      last_due + static_cast<std::uint64_t>(kDrainSeconds * 1e9);
  std::uint64_t armed_for = 0;
  epoll_event events[64];
  while (true) {
    std::uint64_t now = net::EventLoop::clock_ns();
    if (!timing && now >= timed_from_ns) {
      timer.begin();
      timing = true;
    }
    while (next < arrivals.size() && start_ns + arrivals[next].due_ns <= now) {
      const Arrival& arrival = arrivals[next++];
      const bool timed = start_ns + arrival.due_ns >= timed_from_ns;
      if (timed) {
        stats.lag_ms.push_back(
            static_cast<double>(now - start_ns - arrival.due_ns) / 1e6);
      }
      visits.push_back(client.start(arrival, timed));
    }
    now = net::EventLoop::clock_ns();
    std::erase_if(visits, [&](const std::unique_ptr<Visit>& visit) {
      if (!visit->over()) return false;
      if (visit->failed()) {
        ++stats.visits_failed;
      } else {
        ++stats.visits_done;
        if (visit->timed()) {
          timer.add(static_cast<double>(now - start_ns - visit->due_ns()) *
                    1e-6);
        }
      }
      return true;
    });
    if ((next == arrivals.size() && visits.empty()) || now >= give_up) break;

    int timeout_ms = -1;
    if (next < arrivals.size()) {
      const std::uint64_t due = start_ns + arrivals[next].due_ns;
      if (due != armed_for) {
        itimerspec its{};
        its.it_value.tv_sec = static_cast<time_t>(due / 1'000'000'000ULL);
        its.it_value.tv_nsec = static_cast<long>(due % 1'000'000'000ULL);
        ::timerfd_settime(tfd, TFD_TIMER_ABSTIME, &its, nullptr);
        armed_for = due;
      }
    } else {
      timeout_ms = static_cast<int>((give_up - now) / 1'000'000ULL) + 1;
    }
    const int n = ::epoll_wait(client.epoll(), events, 64, timeout_ms);
    for (int i = 0; i < n; ++i) {
      if (events[i].data.ptr == nullptr) {
        std::uint64_t expirations = 0;
        (void)::read(tfd, &expirations, sizeof(expirations));
        continue;
      }
      static_cast<Visit*>(events[i].data.ptr)->on_events(events[i].events);
    }
  }
  timer.end();
  util::posix::close_retry(tfd);
  stats.visits_failed += visits.size();
  visits.clear();

  result.attempted = arrivals.size();
  result.failed = stats.visits_failed;
  result.check(stats.visits_failed == 0, "page visits failed");
  result.check(stats.requests_failed == 0, "requests failed or mismatched");
  result.check(stats.pushes_failed == 0,
               "pushed responses failed or mismatched");
  result.check(stats.pushes_done == stats.push_promises,
               "promised pushes did not complete");
  result.check(stats.visits_done == arrivals.size(), "visits lost");
  result.metrics["requests_total"] = static_cast<double>(stats.requests_sent);
  timer.report(result);
  if (options.trace) {
    result.metrics["generator_lag_p99_ms"] =
        h2push::stats::quantile(stats.lag_ms, 0.99);
    result.metrics["pushed_share"] =
        static_cast<double>(stats.pushes_done) /
        static_cast<double>(stats.pushes_done + stats.requests_sent);
    serving_layer_probes(corpus.store, result);
  }
  std::fprintf(stderr,
               "load: %zu visits at %.0f/s, %llu requests, %llu pushes, "
               "%llu visits failed\n",
               arrivals.size(), kVisitsPerSecond,
               static_cast<unsigned long long>(stats.requests_sent),
               static_cast<unsigned long long>(stats.pushes_done),
               static_cast<unsigned long long>(stats.visits_failed));
  return 0;
}

}  // namespace perfbench

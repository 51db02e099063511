#include "core/memo.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <tuple>
#include <type_traits>
#include <unistd.h>
#include <vector>

#include "sim/tcp.h"
#include "util/sha256.h"

namespace h2push::core {
namespace {

namespace fs = std::filesystem;
using util::CanonicalHasher;
using util::Hash128;

// ------------------------------------------------------------ serialization

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (i * 8)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void put_str(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

/// Bounds-checked little-endian reader; any overrun flips `ok` and every
/// subsequent read returns zero, so deserialize degrades to "corrupt".
struct Reader {
  std::string_view data;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos + 1 > data.size()) {
      ok = false;
      return 0;
    }
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint64_t u64() {
    if (pos + 8 > data.size()) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<std::uint8_t>(data[pos + static_cast<std::size_t>(i)]))
           << (i * 8);
    }
    pos += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    const std::uint64_t len = u64();
    if (!ok || pos + len > data.size()) {
      ok = false;
      return {};
    }
    std::string s(data.substr(pos, len));
    pos += len;
    return s;
  }
};

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// ------------------------------------------------------------- file format

constexpr char kMagic[8] = {'H', '2', 'P', 'M', 'E', 'M', 'O', '\x01'};
constexpr std::size_t kHeaderSize = 8 + 8 + 16 + 8 + 8;  // magic..checksum

std::string frame_entry(const Hash128& key, const std::string& payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  out.append(kMagic, sizeof(kMagic));
  put_u64(out, kCacheFormatVersion);
  put_u64(out, key.hi);
  put_u64(out, key.lo);
  put_u64(out, payload.size());
  put_u64(out, fnv1a64(payload));
  out.append(payload);
  return out;
}

/// Payload of a framed entry, or nullopt if the frame is torn, truncated,
/// from another format version, or fails the checksum.
std::optional<std::string_view> unframe_entry(std::string_view file,
                                              const Hash128& key) {
  Reader r{file};
  if (file.size() < kHeaderSize ||
      file.compare(0, sizeof(kMagic),
                   std::string_view(kMagic, sizeof(kMagic))) != 0) {
    return std::nullopt;
  }
  r.pos = sizeof(kMagic);
  const std::uint64_t version = r.u64();
  const std::uint64_t hi = r.u64();
  const std::uint64_t lo = r.u64();
  const std::uint64_t payload_len = r.u64();
  const std::uint64_t checksum = r.u64();
  if (!r.ok || version != kCacheFormatVersion || hi != key.hi ||
      lo != key.lo || file.size() - kHeaderSize != payload_len) {
    return std::nullopt;
  }
  const std::string_view payload = file.substr(kHeaderSize);
  if (fnv1a64(payload) != checksum) return std::nullopt;
  return payload;
}

// ----------------------------------------------------------- key derivation

/// Pinned canonicalization defaults. These mirror the current struct
/// defaults but are deliberately *copies*: changing a struct default makes
/// configured values differ from the pin and therefore changes keys (a
/// semantic change must), while adding a new knob with a pin equal to its
/// initial default leaves every existing key stable.
namespace pinned {
constexpr double kDownBps = 16e6;
constexpr double kUpBps = 1e6;
constexpr std::int64_t kBaseRtt = sim::from_ms(50);
constexpr std::uint64_t kQueueCapacity = 1000 * 1500;

constexpr std::uint64_t kInterleaveOffset = 4096;
constexpr std::uint64_t kCriticalCount =
    static_cast<std::uint64_t>(static_cast<std::size_t>(-1));
}  // namespace pinned

// TcpConfig has no field: the TCP model's parameters are constants that no
// key hashes. A field added to it must be keyed (hashed in derive_key()),
// or runs that differ only in it share a cache entry.
static_assert(std::is_empty_v<sim::TcpConfig>,
              "TcpConfig gained a field: hash it in derive_key(), bump "
              "kCacheFormatVersion if existing keys move, then update this "
              "guard");
// The TCP constants as the current cache format simulates them. Changing
// one changes results that no key records: bump kCacheFormatVersion, then
// update these copies.
static_assert(sim::kMss == 1460 && sim::kHeaderBytes == 40 &&
                  sim::kInitialCwnd == 10.0 && sim::kInitialSsthresh == 1e9 &&
                  sim::kRtoMin == sim::from_ms(200) &&
                  sim::kRtoInitial == sim::from_ms(1000) &&
                  sim::kTlsRoundTrips == 2 && sim::kTlsClientFlight == 512 &&
                  sim::kTlsServerFlight == 4096 &&
                  sim::kWriteWatermark == 2 * 1460,
              "a TCP model constant changed: bump kCacheFormatVersion, then "
              "update this guard");

// A field added to a keyed struct must be hashed below, or runs that differ
// only in it share a cache entry. These sizes (LP64 libstdc++) make such an
// addition fail to compile until the hash function and this size are
// updated together.
#if defined(__GLIBCXX__) && defined(__LP64__)
static_assert(sizeof(browser::BrowserConfig) == 80,
              "BrowserConfig changed: hash the new field in hash_browser(), "
              "bump kCacheFormatVersion if existing keys move, then update "
              "this size");
static_assert(sizeof(sim::NetworkConditions) == 72,
              "NetworkConditions changed: hash the new field in "
              "hash_conditions(), bump kCacheFormatVersion if existing keys "
              "move, then update this size");
#endif

void hash_conditions(CanonicalHasher& h, const sim::NetworkConditions& net) {
  h.field_default("net.down_bps", net.down_bps, pinned::kDownBps);
  h.field_default("net.up_bps", net.up_bps, pinned::kUpBps);
  h.field_default("net.base_rtt", static_cast<std::int64_t>(net.base_rtt),
                  pinned::kBaseRtt);
  h.field_default("net.queue_capacity",
                  static_cast<std::uint64_t>(net.queue_capacity),
                  pinned::kQueueCapacity);
  h.field_default("net.rtt_jitter_sigma", net.rtt_jitter_sigma, 0.0);
  h.field_default("net.bw_jitter_sigma", net.bw_jitter_sigma, 0.0);
  h.field_default("net.max_loss", net.max_loss, 0.0);
  h.field_default("net.server_think_mean",
                  static_cast<std::int64_t>(net.server_think_mean),
                  std::int64_t{0});
  h.field_default("net.dynamic_content_prob", net.dynamic_content_prob, 0.0);
}

void hash_browser(CanonicalHasher& h, const browser::BrowserConfig& b) {
  h.field_default("browser.enable_push", b.enable_push, true);
  h.field_default(
      "browser.cached_urls",
      std::vector<std::string>(b.cached_urls.begin(), b.cached_urls.end()),
      std::vector<std::string>{});
  h.field_default("browser.send_cache_digest", b.send_cache_digest, false);
  h.field_default("browser.delayable_throttling", b.delayable_throttling,
                  false);
  h.field_default("browser.use_http1", b.use_http1, false);
}

void hash_strategy(CanonicalHasher& h, const Strategy& s) {
  // strategy.name is cosmetic (nothing in the replay reads it) and
  // deliberately excluded: differently-named aliases of one configuration
  // share cache entries.
  h.field_default("strategy.push_enabled", s.client_push_enabled, false);
  h.field_default("strategy.push_urls", s.push_urls,
                  std::vector<std::string>{});
  h.field_default("strategy.interleaving", s.interleaving, false);
  h.field_default("strategy.interleave_offset",
                  static_cast<std::uint64_t>(s.interleave_offset),
                  pinned::kInterleaveOffset);
  h.field_default("strategy.critical_count",
                  static_cast<std::uint64_t>(s.critical_count),
                  pinned::kCriticalCount);
  h.field_default("strategy.hint_urls", s.hint_urls,
                  std::vector<std::string>{});
}

Hash128 derive_key(const Hash128& site_hash, const Strategy& strategy,
                   const RunConfig& config) {
  CanonicalHasher h;
  h.field("format_version",
          static_cast<std::uint64_t>(kCacheFormatVersion));
  h.field("site.content", site_hash);
  hash_strategy(h, strategy);
  hash_conditions(h, config.net);
  hash_browser(h, config.browser);
  h.field("run.seed", config.seed);
  h.field_default("run.index", static_cast<std::int64_t>(config.run_index),
                  std::int64_t{0});
  return h.finish();
}

}  // namespace

// ------------------------------------------------------- site content hash

util::Hash128 site_content_hash(const web::Site& site) {
  CanonicalHasher h;
  h.field("site.name", site.name);
  h.field("site.main_url", site.main_url.str());

  // Record store: every exchange in sorted (host, path) order, hashed as
  // one stream — headers, status, body bytes, push metadata.
  std::vector<const replay::RecordedExchange*> exchanges;
  exchanges.reserve(site.store->size());
  for (const auto& e : site.store->all()) exchanges.push_back(&e);
  std::sort(exchanges.begin(), exchanges.end(),
            [](const replay::RecordedExchange* a,
               const replay::RecordedExchange* b) {
              return std::tie(a->request.url.host, a->request.url.path) <
                     std::tie(b->request.url.host, b->request.url.path);
            });
  util::Sha256 store_hash;
  std::string buf;
  const auto flush = [&] {
    store_hash.update(buf);
    buf.clear();
  };
  for (const auto* e : exchanges) {
    put_str(buf, e->request.method);
    put_str(buf, e->request.url.str());
    put_u64(buf, e->request.headers.size());
    for (const auto& hd : e->request.headers) {
      put_str(buf, hd.name);
      put_str(buf, hd.value);
    }
    put_u64(buf, static_cast<std::uint64_t>(e->response.status));
    put_u8(buf, static_cast<std::uint8_t>(e->response.type));
    put_u64(buf, e->response.body_size);
    put_u64(buf, e->response.headers.size());
    for (const auto& hd : e->response.headers) {
      put_str(buf, hd.name);
      put_str(buf, hd.value);
    }
    put_u8(buf, e->recorded_pushed ? 1 : 0);
    flush();
    if (e->body != nullptr) {
      put_u64(buf, e->body->size());
      flush();
      store_hash.update(*e->body);
    } else {
      put_u64(buf, 0);
      flush();
    }
  }
  const auto digest = store_hash.finish();
  Hash128 store128;
  for (int i = 0; i < 8; ++i) store128.hi = (store128.hi << 8) | digest[i];
  for (int i = 8; i < 16; ++i) store128.lo = (store128.lo << 8) | digest[i];
  h.field("site.store", store128);

  // Origin map: host→IP bindings plus the certificate SAN sets (push
  // authority and coalescing derive from these).
  std::vector<std::string> origin_lines;
  for (const auto& ip : site.origins.all_ips()) {
    std::string line = "ip=" + ip;
    for (const auto& host : site.origins.hosts_on_ip(ip)) {
      line += " host=" + host;
    }
    if (const auto* cert = site.origins.certificate_of(ip)) {
      for (const auto& san : cert->san_hosts) line += " san=" + san;
    }
    origin_lines.push_back(std::move(line));
  }
  h.field("site.origins", origin_lines);

  // The only plan field the replay itself reads (everything else is
  // already baked into the synthesized bytes).
  std::vector<std::string> rtt_lines;
  for (const auto& [host, ms] : site.plan.host_rtt_extra_ms) {
    std::string line = host + "=";
    char num[32];
    std::snprintf(num, sizeof(num), "%.17g", ms);
    line += num;
    rtt_lines.push_back(std::move(line));
  }
  h.field_default("site.host_rtt_extra_ms", rtt_lines,
                  std::vector<std::string>{});

  return h.finish();
}

// ------------------------------------------------------------------ RunCache

struct RunCache::Shard {
  std::mutex mu;
  std::unordered_map<Hash128, std::shared_ptr<const browser::PageLoadResult>,
                     util::Hash128Hasher>
      entries;
};

RunCache::RunCache() : RunCache(Config{}) {}

RunCache::~RunCache() = default;  // Shard is complete here

RunCache::RunCache(Config config)
    : config_(std::move(config)), shards_(new Shard[kShards]) {
  if (!config_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(config_.dir, ec);  // best-effort; writes re-check
  }
}

CacheVerify RunCache::verify_from_env() {
  const char* env = std::getenv("H2PUSH_CACHE_VERIFY");
  if (env == nullptr || env[0] == '\0' ||
      (env[0] == '0' && env[1] == '\0')) {
    return CacheVerify::kOff;
  }
  if (std::string_view(env) == "all") return CacheVerify::kAll;
  return CacheVerify::kSample;
}

std::unique_ptr<RunCache> RunCache::from_env() {
  const char* env = std::getenv("H2PUSH_CACHE");
  if (env == nullptr || env[0] == '\0') return nullptr;
  Config cfg;
  if (std::string_view(env) != "mem") cfg.dir = env;
  cfg.verify = verify_from_env();
  return std::make_unique<RunCache>(std::move(cfg));
}

util::Hash128 RunCache::key(const web::Site& site, const Strategy& strategy,
                            const RunConfig& config) {
  Hash128 site_hash;
  {
    std::lock_guard<std::mutex> lock(site_hash_mu_);
    const auto it = site_hashes_.find(site.store.get());
    if (it != site_hashes_.end()) {
      site_hash = it->second.second;
    } else {
      site_hash = site_content_hash(site);
      site_hashes_.emplace(site.store.get(),
                           std::make_pair(site.store, site_hash));
    }
  }
  return derive_key(site_hash, strategy, config);
}

RunCache::Shard& RunCache::shard_for(const util::Hash128& key) {
  return shards_[key.lo % kShards];
}

std::shared_ptr<const browser::PageLoadResult> RunCache::lookup(
    const util::Hash128& key) {
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(key);
    if (it != shard.entries.end()) {
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.hits;
      return it->second;
    }
  }
  if (!config_.dir.empty()) {
    if (auto loaded = load_from_disk(key)) {
      Shard& shard = shard_for(key);
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.entries.emplace(key, loaded);
      std::lock_guard<std::mutex> stats_lock(stats_mu_);
      ++stats_.hits;
      ++stats_.disk_hits;
      return loaded;
    }
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  ++stats_.misses;
  return nullptr;
}

void RunCache::store(const util::Hash128& key,
                     const browser::PageLoadResult& result) {
  auto value = std::make_shared<const browser::PageLoadResult>(result);
  {
    Shard& shard = shard_for(key);
    std::lock_guard<std::mutex> lock(shard.mu);
    // Concurrent workers may compute the same key; first insert wins and
    // both copies are identical by construction (pure function of the key).
    shard.entries.emplace(key, std::move(value));
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.stores;
  }
  if (!config_.dir.empty()) store_to_disk(key, serialize(result));
}

bool RunCache::should_verify(const util::Hash128& key) const {
  switch (config_.verify) {
    case CacheVerify::kOff:
      return false;
    case CacheVerify::kAll:
      return true;
    case CacheVerify::kSample:
      // Deterministic in the key → independent of job count and of which
      // tier answered; ~1/16 of hits.
      return (key.lo & 0xf) == 0;
  }
  return false;
}

void RunCache::verify(const util::Hash128& key,
                      const browser::PageLoadResult& cached,
                      const browser::PageLoadResult& recomputed) {
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.verified;
  }
  if (serialize(cached) != serialize(recomputed)) {
    throw std::runtime_error(
        "H2PUSH_CACHE_VERIFY: cached LoadResult for key " + key.hex() +
        " is not byte-identical to a fresh simulation — the cache is stale "
        "or a semantic input is missing from the key derivation");
  }
}

RunCacheStats RunCache::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

// ---------------------------------------------------------- persistence

std::string RunCache::entry_path(const util::Hash128& key) const {
  const std::string hex = key.hex();
  // Fan out by the first byte so a big sweep does not create one huge
  // directory.
  return config_.dir + "/" + hex.substr(0, 2) + "/" + hex + ".bin";
}

std::shared_ptr<const browser::PageLoadResult> RunCache::load_from_disk(
    const util::Hash128& key) {
  const std::string path = entry_path(key);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return nullptr;
  std::string file;
  char buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) file.append(buf, n);
  std::fclose(f);

  const auto payload = unframe_entry(file, key);
  if (!payload) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.corrupt;
    return nullptr;
  }
  auto result = deserialize(*payload);
  if (!result) {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    ++stats_.corrupt;
    return nullptr;
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mu_);
    stats_.bytes_read += payload->size();
  }
  return std::make_shared<const browser::PageLoadResult>(*std::move(result));
}

void RunCache::store_to_disk(const util::Hash128& key,
                             const std::string& payload) {
  const std::string path = entry_path(key);
  std::error_code ec;
  if (fs::exists(path, ec)) return;  // content-addressed: never rewrite
  fs::create_directories(fs::path(path).parent_path(), ec);
  if (ec) return;

  // Atomic publish: write a private temp file, then rename. A concurrent
  // writer of the same key renames identical bytes — last one wins,
  // harmlessly. Readers never observe a partial file.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return;
  const std::string framed = frame_entry(key, payload);
  const bool wrote =
      std::fwrite(framed.data(), 1, framed.size(), f) == framed.size();
  std::fclose(f);
  if (!wrote) {
    fs::remove(tmp, ec);
    return;
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }
  std::lock_guard<std::mutex> stats_lock(stats_mu_);
  stats_.bytes_written += payload.size();
}

// -------------------------------------------------- LoadResult (de)serialize

std::string RunCache::serialize(const browser::PageLoadResult& r) {
  std::string out;
  out.reserve(256 + r.resources.size() * 96 + r.vc_curve.size() * 16);
  put_u8(out, r.complete ? 1 : 0);
  put_f64(out, r.plt_ms);
  put_f64(out, r.speed_index_ms);
  put_f64(out, r.first_paint_ms);
  put_f64(out, r.last_visual_change_ms);
  put_f64(out, r.dom_content_loaded_ms);
  put_u64(out, r.bytes_pushed);
  put_u64(out, r.bytes_total);
  put_u64(out, r.num_requests);
  put_u64(out, r.num_pushed);
  put_u64(out, r.pushes_cancelled);
  put_u64(out, r.resources.size());
  for (const auto& res : r.resources) {
    put_str(out, res.url);
    put_u8(out, static_cast<std::uint8_t>(res.type));
    put_f64(out, res.t_initiated_ms);
    put_f64(out, res.t_headers_ms);
    put_f64(out, res.t_complete_ms);
    put_u64(out, res.size);
    put_u8(out, res.pushed ? 1 : 0);
    put_u8(out, res.adopted ? 1 : 0);
  }
  put_u64(out, r.vc_curve.size());
  for (const auto& [ms, completeness] : r.vc_curve) {
    put_f64(out, ms);
    put_f64(out, completeness);
  }
  put_u64(out, r.packets_dropped);
  put_u64(out, r.retransmissions);
  return out;
}

std::optional<browser::PageLoadResult> RunCache::deserialize(
    std::string_view payload) {
  Reader r{payload};
  browser::PageLoadResult out;
  out.complete = r.u8() != 0;
  out.plt_ms = r.f64();
  out.speed_index_ms = r.f64();
  out.first_paint_ms = r.f64();
  out.last_visual_change_ms = r.f64();
  out.dom_content_loaded_ms = r.f64();
  out.bytes_pushed = r.u64();
  out.bytes_total = r.u64();
  out.num_requests = static_cast<std::size_t>(r.u64());
  out.num_pushed = static_cast<std::size_t>(r.u64());
  out.pushes_cancelled = static_cast<std::size_t>(r.u64());
  const std::uint64_t n_resources = r.u64();
  if (!r.ok || n_resources > payload.size()) return std::nullopt;
  out.resources.reserve(static_cast<std::size_t>(n_resources));
  for (std::uint64_t i = 0; i < n_resources && r.ok; ++i) {
    browser::ResourceTiming t;
    t.url = r.str();
    t.type = static_cast<http::ResourceType>(r.u8());
    t.t_initiated_ms = r.f64();
    t.t_headers_ms = r.f64();
    t.t_complete_ms = r.f64();
    t.size = static_cast<std::size_t>(r.u64());
    t.pushed = r.u8() != 0;
    t.adopted = r.u8() != 0;
    out.resources.push_back(std::move(t));
  }
  const std::uint64_t n_curve = r.u64();
  if (!r.ok || n_curve > payload.size()) return std::nullopt;
  out.vc_curve.reserve(static_cast<std::size_t>(n_curve));
  for (std::uint64_t i = 0; i < n_curve && r.ok; ++i) {
    const double ms = r.f64();
    const double completeness = r.f64();
    out.vc_curve.emplace_back(ms, completeness);
  }
  out.packets_dropped = r.u64();
  out.retransmissions = r.u64();
  if (!r.ok || r.pos != payload.size()) return std::nullopt;
  return out;
}

}  // namespace h2push::core

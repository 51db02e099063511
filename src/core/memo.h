// Content-addressed run memoization.
//
// Every (site, strategy, network, seed, run_index) tuple is a *pure
// deterministic function* of its inputs (see DESIGN.md §5), so a page load
// computed once never needs to be computed again — not across learner
// iterations re-evaluating overlapping candidates, not across bench
// harnesses sharing a no-push baseline, and not across successive
// `scripts/bench.sh` invocations. RunCache exploits that with two tiers:
//
//   1. a sharded in-memory map, safe under ParallelRunner (per-shard
//      mutexes; a cached value is immutable once inserted, and the value
//      for a key is unique, so concurrent double-compute is benign and
//      jobs=1 vs jobs=N stays bit-exact);
//   2. an optional persistent on-disk store (`--cache DIR` or
//      H2PUSH_CACHE=DIR): one binary LoadResult file per key, written via
//      atomic rename, guarded by magic/version/key/checksum so a torn or
//      truncated entry is a miss, never a crash or a wrong result.
//
// The key is a canonical 128-bit hash (util/hash.h) over the corpus
// content hash, the semantic Strategy bytes, the network Conditions, the
// browser settings, the TCP parameters, the seed, the run index, and the
// cache-format version — anything that can change the simulated bytes
// changes the key, and nothing else does (strategy *names* are cosmetic
// and excluded, so learner candidates that alias the same configuration
// hit). The browser model's constants (browser/config.h) are code, not
// inputs: changing one, like any model change, needs a version bump.
//
// The cache must be a pure speedup, never a semantics change:
// H2PUSH_CACHE_VERIFY=1 recomputes a deterministic sample of hits (=all:
// every hit) and throws if the cached and recomputed LoadResults are not
// byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "browser/page_load.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "util/hash.h"
#include "web/site.h"

namespace h2push::core {

/// Bump whenever the key derivation, a pinned canonicalization default, the
/// LoadResult serialization, or the simulated result for some key changes;
/// old on-disk entries then never match (the version participates in the
/// key) and old files never parse (it is also in the file header).
inline constexpr std::uint32_t kCacheFormatVersion = 2;

enum class CacheVerify : std::uint8_t {
  kOff,
  kSample,  ///< recompute ~1/16 of hits, chosen deterministically by key
  kAll,     ///< recompute every hit
};

struct RunCacheStats {
  std::uint64_t hits = 0;        ///< lookups answered from memory or disk
  std::uint64_t misses = 0;      ///< lookups that had to simulate
  std::uint64_t disk_hits = 0;   ///< subset of hits loaded from the store
  std::uint64_t stores = 0;      ///< results inserted
  std::uint64_t verified = 0;    ///< hits recomputed by verify mode
  std::uint64_t corrupt = 0;     ///< on-disk entries rejected (torn/stale)
  std::uint64_t bytes_read = 0;  ///< payload bytes loaded from disk
  std::uint64_t bytes_written = 0;  ///< payload bytes written to disk

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class RunCache {
 public:
  struct Config {
    std::string dir;  ///< persistent store directory; empty = memory only
    CacheVerify verify = CacheVerify::kOff;
  };

  RunCache();  ///< in-memory tier only, verify off
  explicit RunCache(Config config);
  ~RunCache();
  RunCache(const RunCache&) = delete;
  RunCache& operator=(const RunCache&) = delete;

  /// H2PUSH_CACHE_VERIFY: unset/"0" = off, "all" = every hit, anything
  /// else ("1") = deterministic sample.
  static CacheVerify verify_from_env();

  /// Cache configured from H2PUSH_CACHE (+ H2PUSH_CACHE_VERIFY), or null
  /// when the variable is unset/empty. "mem" selects the in-memory tier
  /// only.
  static std::unique_ptr<RunCache> from_env();

  /// The canonical key for one run. The site's content hash is memoized
  /// per RecordStore (the store is immutable; the cache retains the
  /// shared_ptr so the address cannot be reused while the memo lives).
  util::Hash128 key(const web::Site& site, const Strategy& strategy,
                    const RunConfig& config);

  /// Cached result, consulting memory then disk; null on miss.
  std::shared_ptr<const browser::PageLoadResult> lookup(
      const util::Hash128& key);

  /// Insert into memory and (when configured) the persistent store.
  void store(const util::Hash128& key, const browser::PageLoadResult& result);

  /// Should this hit be recomputed and compared? Deterministic in the key.
  bool should_verify(const util::Hash128& key) const;

  /// Throws std::runtime_error unless cached and recomputed results are
  /// byte-identical under serialize(). Counts into stats().verified.
  void verify(const util::Hash128& key,
              const browser::PageLoadResult& cached,
              const browser::PageLoadResult& recomputed);

  RunCacheStats stats() const;
  const std::string& dir() const noexcept { return config_.dir; }
  CacheVerify verify_mode() const noexcept { return config_.verify; }

  /// Canonical binary serialization of a LoadResult — the persistent
  /// payload format, and the byte-identity relation verify mode asserts.
  static std::string serialize(const browser::PageLoadResult& result);
  static std::optional<browser::PageLoadResult> deserialize(
      std::string_view payload);

 private:
  struct Shard;

  Shard& shard_for(const util::Hash128& key);
  std::string entry_path(const util::Hash128& key) const;
  std::shared_ptr<const browser::PageLoadResult> load_from_disk(
      const util::Hash128& key);
  void store_to_disk(const util::Hash128& key, const std::string& payload);

  Config config_;

  static constexpr std::size_t kShards = 64;
  std::unique_ptr<Shard[]> shards_;

  mutable std::mutex site_hash_mu_;
  // Keyed by store address; holding the shared_ptr pins the store alive so
  // the address can never be recycled for a different corpus.
  std::unordered_map<const replay::RecordStore*,
                     std::pair<std::shared_ptr<replay::RecordStore>,
                               util::Hash128>>
      site_hashes_;

  mutable std::mutex stats_mu_;
  RunCacheStats stats_;
};

/// Canonical content hash of a site: name, main URL, every recorded
/// exchange (headers, bodies, push metadata) in sorted (host, path) order,
/// the origin→IP map with certificates, and the per-host RTT plan — the
/// full set of site-side inputs a replay can observe. Editing the corpus
/// in any observable way changes this hash and invalidates cached runs.
util::Hash128 site_content_hash(const web::Site& site);

}  // namespace h2push::core

// Browser model: the fixed parameters of the modelled browser (Chromium 64
// on the paper's DSL testbed) and the per-run settings of a page load.
//
// The constants are part of the model, like its code: changing one moves
// results, so it needs a kCacheFormatVersion bump (core/memo.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>

#include "sim/time.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::browser {

// --- viewport / layout model ---
inline constexpr int kViewportWidth = 1280;
inline constexpr int kViewportHeight = 768;  // the "fold"
inline constexpr double kCharsPerLine = 120;
inline constexpr double kLineHeightPx = 24;
inline constexpr int kDefaultImageHeight = 150;

// --- compute model (main thread) ---
// Calibrated against 2018-era Chromium on commodity hardware (the paper
// drives Chromium 64 through browsertime): parsing and script execution
// are a large share of the critical path, which is what caps the benefit
// of any network-side optimization (paper §4.3, s5/s8).
/// HTML parsing throughput.
inline constexpr double kParseRateBytesPerMs = 1200;
/// Style-sheet parsing.
inline constexpr double kCssParseRateBytesPerMs = 2500;
/// Default JS cost from size.
inline constexpr double kJsExecRateBytesPerMs = 350;
/// Client-side processing noise.
inline constexpr double kTaskJitterSigma = 0.10;
/// 60 Hz frames.
inline constexpr sim::Time kPaintInterval = sim::from_ms(16.7);
/// Parser task granularity.
inline constexpr std::size_t kParseSliceBytes = 8 * 1024;

// --- protocol behaviour ---
/// Chromium-like large receive windows so push is not window-bound.
inline constexpr std::uint32_t kInitialStreamWindow = 6 * 1024 * 1024;
inline constexpr std::uint32_t kConnectionWindowBonus =
    15 * 1024 * 1024 - 65535;
/// Image requests allowed on the wire while render-blocking fetches are in
/// flight, under BrowserConfig::delayable_throttling.
inline constexpr std::size_t kDelayableProbeLimit = 1;
/// Parallel keep-alive HTTP/1.1 connections per coalescing group, under
/// BrowserConfig::use_http1.
inline constexpr std::size_t kH1ConnectionsPerOrigin = 6;

/// Give up on a page after this much simulated time.
inline constexpr sim::Time kLoadDeadline = sim::from_seconds(120);

struct BrowserConfig {
  /// SETTINGS_ENABLE_PUSH: the paper's "no push" arm sets this to 0.
  bool enable_push = true;
  /// URLs considered cached: the client cancels pushes for them (RFC 7540
  /// push-cancel path; drafts for cache digests referenced in §2.1).
  std::set<std::string> cached_urls;
  /// Send a CACHE_DIGEST extension frame (draft-ietf-httpbis-cache-digest)
  /// summarizing cached_urls at connection start, so servers can skip
  /// pushing cached resources instead of the client cancelling mid-flight.
  bool send_cache_digest = false;
  /// Chromium ResourceScheduler model (ablation, default off): while
  /// render-blocking fetches (class High or above) are in flight, at most
  /// `kDelayableProbeLimit` image requests are on the wire. Server Push
  /// bypasses this client-side throttle. Enabling it makes the no-push
  /// baseline cleaner and *hurts* push-all across the corpus — see the
  /// ablation bench and EXPERIMENTS.md.
  bool delayable_throttling = false;

  /// Use HTTP/1.1 instead of HTTP/2: up to `kH1ConnectionsPerOrigin`
  /// parallel keep-alive connections per coalescing group, serial
  /// request/response on each, no multiplexing, no push, no priorities —
  /// the baseline the paper's introduction frames H2 against.
  bool use_http1 = false;

  /// Optional cross-layer trace recorder (null = tracing disabled); browser
  /// events — fetch lifecycle spans, parse/render marks — land on
  /// `trace_track`.
  trace::TraceRecorder* trace = nullptr;
  std::uint32_t trace_track = 0;
};

}  // namespace h2push::browser

// Page load driver: composes the main thread, fetch manager and renderer,
// and extracts the metrics the experiments report.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "browser/config.h"
#include "browser/fetch.h"
#include "browser/main_thread.h"
#include "browser/render.h"
#include "replay/origin.h"
#include "util/rng.h"

namespace h2push::browser {

struct ResourceTiming {
  std::string url;
  http::ResourceType type = http::ResourceType::kOther;
  double t_initiated_ms = 0;  // relative to connectEnd
  double t_headers_ms = 0;
  double t_complete_ms = 0;
  std::size_t size = 0;
  bool pushed = false;
  bool adopted = false;
};

struct PageLoadResult {
  bool complete = false;       ///< onload fired before the deadline
  double plt_ms = 0;           ///< onload − connectEnd (paper §2.2)
  double speed_index_ms = 0;
  double first_paint_ms = 0;
  double last_visual_change_ms = 0;
  double dom_content_loaded_ms = 0;
  std::uint64_t bytes_pushed = 0;  ///< protocol-level pushed DATA bytes
  std::uint64_t bytes_total = 0;
  std::size_t num_requests = 0;
  std::size_t num_pushed = 0;
  std::size_t pushes_cancelled = 0;
  std::vector<ResourceTiming> resources;  // initiation order
  std::vector<std::pair<double, double>> vc_curve;  // (ms, completeness)

  // Transport diagnostics (filled by the testbed).
  std::uint64_t packets_dropped = 0;
  std::uint64_t retransmissions = 0;
};

class PageLoad {
 public:
  PageLoad(sim::Simulator& sim, BrowserConfig config,
           const replay::OriginMap& origins, http::Url main_url,
           TransportFactory factory, util::Rng compute_rng);

  void start() { renderer_->start(); }

  bool finished() const {
    return renderer_->onload_fired() ||
           sim_.now() >= kLoadDeadline;
  }

  /// Call after the simulator drained (or hit the deadline).
  PageLoadResult result();

  Renderer& renderer() { return *renderer_; }
  FetchManager& fetches() { return *fetches_; }

 private:
  sim::Simulator& sim_;
  BrowserConfig config_;
  std::unique_ptr<MainThread> main_thread_;
  std::unique_ptr<FetchManager> fetches_;
  std::unique_ptr<Renderer> renderer_;
};

}  // namespace h2push::browser

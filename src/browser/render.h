// Rendering pipeline model.
//
// Drives a page load the way a 2018 Chromium does, at the level of detail
// that determines PLT and SpeedIndex:
//
//  * The DOM parser consumes HTML incrementally in main-thread slices.
//    A sync <script> blocks it until the script is fetched AND every
//    stylesheet seen earlier in the document has loaded (script execution
//    waits on the CSSOM); inline scripts wait for earlier stylesheets too.
//  * The preload scanner races ahead of the blocked parser and issues
//    fetches for <link rel=stylesheet>, <script src> and <img src> —
//    which is why early-referenced resources gain nothing from push
//    (paper §4.3, s8).
//  * Stylesheets are parsed on arrival; @font-face fonts and background
//    images are hidden resources discovered only then (paper s1). Each
//    distinct sheet text is parsed once per process (parse_css_shared);
//    every load still pays the simulated parse cost.
//    Executed scripts may inject further fetches (data-loads).
//  * Layout is a static single-column flow: elements accumulate height;
//    content above the viewport fold forms the paint units whose
//    completion defines visual progress. Text with a web font waits for
//    the font; images wait for their bytes; everything waits for the
//    stylesheets preceding it in document order.
//  * Paint runs on 60 Hz frame boundaries through the main thread, so a
//    compute-bound page delays its own visual progress (paper s5).
//
// onload fires when parsing finished and every adopted fetch completed;
// PLT = onload - connectEnd (paper §2.2).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "browser/config.h"
#include "browser/css.h"
#include "browser/fetch.h"
#include "browser/html.h"
#include "browser/main_thread.h"
#include "browser/metrics.h"

namespace h2push::browser {

class Renderer {
 public:
  Renderer(sim::Simulator& sim, const BrowserConfig& config,
           MainThread& main_thread, FetchManager& fetches,
           http::Url main_url);

  /// Kick off the main document fetch.
  void start();

  bool onload_fired() const noexcept { return onload_fired_; }
  sim::Time onload_time() const noexcept { return onload_time_; }
  bool parse_complete() const noexcept { return parse_complete_; }
  sim::Time dom_content_loaded() const noexcept { return dcl_time_; }
  VisualProgress& visual() noexcept { return visual_; }
  const VisualProgress& visual() const noexcept { return visual_; }
  double total_above_fold_weight() const noexcept { return total_af_weight_; }

 private:
  struct Sheet {
    std::shared_ptr<Fetch> fetch;  // null for inline <style>
    bool loaded = false;
    std::shared_ptr<const Stylesheet> model;
  };

  struct PaintUnit {
    enum class Kind : std::uint8_t { kText, kImage, kBackground } kind;
    double y_top = 0;
    double height = 0;
    double weight = 0;       // px area
    bool above_fold = false;
    std::size_t sheet_epoch = 0;  // stylesheets preceding this unit
    ElementPath path;             // text units only: font resolution
    std::shared_ptr<Fetch> resource;  // images/backgrounds
    bool painted = false;
    double painted_fraction = 0;  // images paint progressively
  };

  struct BlockedScript {
    std::shared_ptr<Fetch> fetch;  // null for inline scripts
    std::size_t inline_size = 0;   // inline scripts: body bytes
    double exec_ms_attr = -1;      // data-exec-ms override
    std::string data_loads;
    std::size_t sheet_epoch = 0;   // stylesheets it must wait for
  };

  // --- main document plumbing ---
  void on_main_data(std::span<const std::uint8_t> data, bool fin);
  void schedule_parse();
  void parse_slice();
  void handle_token(const HtmlToken& token);
  void on_parse_complete();

  // --- scanner ---
  void schedule_scan();
  void scan_slice();

  // --- subresources ---
  void add_stylesheet(const http::Url& url);
  void add_inline_style(std::string_view text);
  void on_sheet_loaded(std::size_t index, std::string_view body);
  void handle_script_tag(const HtmlToken& token);
  void execute_script(const BlockedScript& script);
  void maybe_resume_parser();
  bool sheets_loaded_through(std::size_t epoch) const;
  NetPriority classify_priority(http::ResourceType type, bool is_async) const;

  // --- layout / paint ---
  ElementPath current_path() const;
  void add_text_unit(double chars, bool heading);
  void add_image_unit(const HtmlToken& tag,
                      const std::shared_ptr<Fetch>& fetch);
  void schedule_paint();
  void evaluate_paint();
  bool unit_paintable(const PaintUnit& unit) const;
  double unit_fraction(const PaintUnit& unit) const;
  std::optional<std::string> required_font(const PaintUnit& unit) const;
  void check_onload();

  sim::Simulator& sim_;
  const BrowserConfig& config_;
  MainThread& main_;
  FetchManager& fetches_;
  http::Url main_url_;

  // Document buffer shared by the two cursors.
  std::string doc_;
  bool doc_complete_ = false;
  HtmlTokenizer parser_{&doc_};
  HtmlTokenizer scanner_{&doc_};
  bool parse_scheduled_ = false;
  bool scan_scheduled_ = false;
  bool scanner_in_head_ = true;
  bool parser_yield_ = false;  // yield the slice to a script exec task
  std::optional<BlockedScript> blocked_script_;
  bool parse_complete_ = false;

  // Element / layout state.
  std::vector<ElementPath::Entry> open_elements_;
  double y_cursor_ = 0;
  double text_chars_ = 0;  // inside the current <p>/<h1>
  int text_depth_ = 0;
  bool in_head_ = true;

  std::vector<Sheet> sheets_;
  std::map<std::string, std::shared_ptr<Fetch>> fonts_;  // family → fetch
  std::vector<std::pair<ElementPath, double>> containers_;  // div path, y
  std::vector<PaintUnit> units_;
  double total_af_weight_ = 0;
  int images_seen_ = 0;  // Chromium boosts the first in-viewport images

  bool paint_scheduled_ = false;
  double painted_weight_ = 0;
  VisualProgress visual_;

  bool onload_fired_ = false;
  sim::Time onload_time_ = 0;
  sim::Time dcl_time_ = 0;
};

}  // namespace h2push::browser

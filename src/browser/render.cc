#include "browser/render.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "http/url.h"
#include "trace/trace.h"
#include "util/strings.h"

namespace h2push::browser {
namespace {

NetPriority preload_priority(std::string_view as_attr) {
  // Preload priorities per Chromium: fonts and styles high, images low.
  if (as_attr == "font" || as_attr == "style") return NetPriority::kHighest;
  if (as_attr == "script") return NetPriority::kHigh;
  return NetPriority::kLowest;
}

bool is_void_element(const std::string& name) {
  return name == "img" || name == "link" || name == "meta" || name == "br" ||
         name == "input" || name == "hr";
}

std::vector<std::string> parse_classes(std::string_view attr) {
  std::vector<std::string> out;
  for (auto cls : util::split(attr, ' ')) {
    cls = util::trim(cls);
    if (!cls.empty()) out.emplace_back(cls);
  }
  return out;
}

}  // namespace

Renderer::Renderer(sim::Simulator& sim, const BrowserConfig& config,
                   MainThread& main_thread, FetchManager& fetches,
                   http::Url main_url)
    : sim_(sim),
      config_(config),
      main_(main_thread),
      fetches_(fetches),
      main_url_(std::move(main_url)) {
  fetches_.set_progress_callback([this] { check_onload(); });
}

void Renderer::start() {
  main_fetch_ = fetches_.fetch(main_url_, NetPriority::kHighest);
  parser_ = HtmlTokenizer(&main_fetch_->body());
  scanner_ = HtmlTokenizer(&main_fetch_->body());
  Fetch::Subscriber sub;
  sub.on_data = [this](std::span<const std::uint8_t>, bool fin) {
    on_main_data(fin);
  };
  sub.on_complete = [this](const Fetch&) {
    if (!doc_complete_) on_main_data(true);
  };
  main_fetch_->subscribe(std::move(sub));
}

void Renderer::on_main_data(bool fin) {
  // The bytes are in doc() already: the fetch keeps them before it streams
  // them to subscribers.
  if (fin) doc_complete_ = true;
  // connectEnd is known once the main transport finished its handshake.
  if (visual_.reference() == 0) {
    visual_.set_reference(fetches_.main_connect_end());
  }
  schedule_scan();
  schedule_parse();
}

// ---------------------------------------------------------------- scanner

void Renderer::schedule_scan() {
  if (scan_scheduled_ || scanner_.at_end()) return;
  scan_scheduled_ = true;
  const std::size_t avail = doc().size() - scanner_.position();
  // The speculative scanner is much cheaper than full parsing.
  const double cost =
      static_cast<double>(avail) / (4.0 * kParseRateBytesPerMs);
  main_.post(cost, [this] {
    scan_scheduled_ = false;
    scan_slice();
  });
}

void Renderer::scan_slice() {
  // Tokens are views into doc() (browser/html.h): nothing a token starts
  // may append to it before the token is done.
  [[maybe_unused]] const char* const doc_bytes = doc().data();
  while (auto token = scanner_.next()) {
    if (token->kind != HtmlToken::Kind::kStartTag) continue;
    if (token->name == "body") scanner_in_head_ = false;
    if (token->name == "link") {
      const auto rel = token->attr("rel");
      const auto href = token->attr("href");
      if (href.empty()) continue;
      if (util::iequals(rel, "stylesheet")) {
        fetches_.fetch(http::resolve(main_url_, href), NetPriority::kHighest);
      } else if (util::iequals(rel, "preload")) {
        fetches_.fetch(http::resolve(main_url_, href),
                       preload_priority(token->attr("as")));
      }
    } else if (token->name == "script") {
      const auto src = token->attr("src");
      if (!src.empty()) {
        const bool is_async =
            token->has_attr("async") || token->has_attr("defer");
        fetches_.fetch(http::resolve(main_url_, src),
                       classify_priority(http::ResourceType::kJs, is_async));
      }
    } else if (token->name == "img") {
      const auto src = token->attr("src");
      if (!src.empty()) {
        const NetPriority prio = images_seen_ < 5 ? NetPriority::kMedium
                                                  : NetPriority::kLowest;
        ++images_seen_;
        fetches_.fetch(http::resolve(main_url_, src), prio);
      }
    }
  }
  assert(doc().data() == doc_bytes);
  schedule_scan();  // more bytes may already be buffered
}

NetPriority Renderer::classify_priority(http::ResourceType type,
                                        bool is_async) const {
  return priority_for(type, scanner_in_head_, is_async);
}

// ----------------------------------------------------------------- parser

void Renderer::schedule_parse() {
  if (parse_scheduled_ || blocked_script_ || parse_complete_) return;
  if (parser_.at_end() && !doc_complete_) return;
  parse_scheduled_ = true;
  const std::size_t avail = doc().size() - parser_.position();
  const std::size_t slice = std::min(avail, kParseSliceBytes);
  const double cost = static_cast<double>(slice) / kParseRateBytesPerMs;
  main_.post(cost, [this] {
    parse_scheduled_ = false;
    parse_slice();
  });
}

void Renderer::parse_slice() {
  // As in scan_slice.
  [[maybe_unused]] const char* const doc_bytes = doc().data();
  parser_yield_ = false;
  const std::size_t start = parser_.position();
  while (!blocked_script_ && !parser_yield_ &&
         parser_.position() - start < kParseSliceBytes) {
    auto token = parser_.next();
    if (!token) {
      if (doc_complete_ && parser_.at_end() && !parse_complete_) {
        on_parse_complete();
      }
      return;
    }
    handle_token(*token);
    assert(doc().data() == doc_bytes);
  }
  if (!blocked_script_ && !parser_yield_) schedule_parse();
}

void Renderer::handle_token(const HtmlToken& token) {
  switch (token.kind) {
    case HtmlToken::Kind::kText:
      if (text_depth_ > 0) {
        text_chars_ += static_cast<double>(token.text.size());
      }
      return;
    case HtmlToken::Kind::kEndTag:
      if (token.name == "p" || token.name == "h1" || token.name == "h2") {
        if (text_depth_ > 0) {
          add_text_unit(text_chars_, token.name != "p");
          text_chars_ = 0;
          --text_depth_;
        }
      }
      if (token.name == "head") in_head_ = false;
      if (!open_elements_.empty() &&
          open_elements_.back().tag == token.name) {
        open_elements_.pop_back();
      }
      return;
    case HtmlToken::Kind::kStartTag:
      break;
  }

  const HtmlToken& tag = token;
  if (tag.name == "body") in_head_ = false;

  if (tag.name == "link") {
    const auto rel = tag.attr("rel");
    const auto href = tag.attr("href");
    if (util::iequals(rel, "stylesheet")) {
      if (!href.empty()) add_stylesheet(http::resolve(main_url_, href));
    } else if (util::iequals(rel, "preload") && !href.empty()) {
      fetches_.fetch(http::resolve(main_url_, href),
                     preload_priority(tag.attr("as")));
    }
    return;
  }
  if (tag.name == "style") {
    add_inline_style(tag.text);
    return;
  }
  if (tag.name == "script") {
    handle_script_tag(tag);
    return;
  }
  if (tag.name == "img") {
    const auto src = tag.attr("src");
    std::shared_ptr<Fetch> fetch;
    if (!src.empty()) {
      // Chromium raises the priority of the first few images (they are
      // almost certainly in the viewport), so heroes do not starve behind
      // every stylesheet and script on the page.
      const NetPriority prio = images_seen_ < 5 ? NetPriority::kMedium
                                                : NetPriority::kLowest;
      ++images_seen_;
      fetch = fetches_.fetch(http::resolve(main_url_, src), prio);
    }
    add_image_unit(tag, fetch);
    return;
  }

  // Generic elements: track the path for CSS matching and text flow.
  if (!is_void_element(tag.name) && !tag.self_closing) {
    ElementPath::Entry entry;
    entry.tag = tag.name;
    entry.classes = parse_classes(tag.attr("class"));
    entry.id = std::string(tag.attr("id"));
    open_elements_.push_back(std::move(entry));
    if (tag.name == "div" || tag.name == "section") {
      containers_.emplace_back(current_path(), y_cursor_);
    }
    if (tag.name == "p" || tag.name == "h1" || tag.name == "h2") {
      ++text_depth_;
      text_chars_ = 0;
    }
  }
}

void Renderer::on_parse_complete() {
  parse_complete_ = true;
  dcl_time_ = sim_.now();
  if (config_.trace != nullptr) {
    config_.trace->instant(config_.trace_track, "browser",
                           "mark.domContentLoaded");
  }
  schedule_paint();
  check_onload();
}

// ------------------------------------------------------------ stylesheets

void Renderer::add_stylesheet(const http::Url& url) {
  const std::size_t index = sheets_.size();
  Sheet sheet;
  sheet.fetch = fetches_.fetch(url, NetPriority::kHighest);
  sheets_.push_back(std::move(sheet));
  Fetch::Subscriber sub;
  sub.on_complete = [this, index](const Fetch& fetch) {
    const double cost = static_cast<double>(fetch.size()) /
                        kCssParseRateBytesPerMs;
    main_.post(cost, [this, index] {
      on_sheet_loaded(index, sheets_[index].fetch->body());
    });
  };
  sheets_[index].fetch->subscribe(std::move(sub));
}

void Renderer::add_inline_style(std::string_view text) {
  const std::size_t index = sheets_.size();
  sheets_.push_back(Sheet{});
  // Inline styles are parsed synchronously as part of the parse task.
  on_sheet_loaded(index, text);
}

void Renderer::on_sheet_loaded(std::size_t index, std::string_view body) {
  Sheet& sheet = sheets_[index];
  // Fetch keeps the bytes of every stylesheet response (fetch.h).
  assert(!sheet.fetch || sheet.fetch->body().size() == sheet.fetch->size());
  sheet.model = parse_css_shared(body);
  sheet.loaded = true;
  // Hidden resources: fonts and background images only exist once the CSS
  // is parsed (paper s1: "hidden fonts referenced in the CSS").
  for (const auto& face : sheet.model->font_faces) {
    if (face.url.empty() || fonts_.count(face.family) != 0) continue;
    fonts_[face.family] =
        fetches_.fetch(http::resolve(main_url_, face.url),
                       NetPriority::kHighest);
  }
  for (const auto& rule : sheet.model->rules) {
    for (const auto& url : rule.urls()) {
      auto fetch = fetches_.fetch(http::resolve(main_url_, url),
                                  NetPriority::kLowest);
      // Background paint unit bound to the first matching container.
      for (const auto& [path, y] : containers_) {
        if (matches(rule, path)) {
          PaintUnit unit;
          unit.kind = PaintUnit::Kind::kBackground;
          unit.y_top = y;
          unit.height = 240;
          unit.weight = static_cast<double>(kViewportWidth) * 240;
          unit.above_fold = y < kViewportHeight;
          unit.sheet_epoch = index + 1;
          unit.resource = fetch;
          if (unit.above_fold) total_af_weight_ += unit.weight;
          units_.push_back(std::move(unit));
          break;
        }
      }
    }
  }
  maybe_resume_parser();
  schedule_paint();
  check_onload();
}

bool Renderer::sheets_loaded_through(std::size_t epoch) const {
  for (std::size_t i = 0; i < epoch && i < sheets_.size(); ++i) {
    if (!sheets_[i].loaded) return false;
  }
  return true;
}

// ---------------------------------------------------------------- scripts

void Renderer::handle_script_tag(const HtmlToken& tag) {
  BlockedScript script;
  script.sheet_epoch = sheets_.size();
  script.data_loads = std::string(tag.attr("data-loads"));
  const auto exec_attr = tag.attr("data-exec-ms");
  if (!exec_attr.empty()) {
    script.exec_ms_attr = std::atof(std::string(exec_attr).c_str());
  }
  const auto src = tag.attr("src");
  const bool is_async = tag.has_attr("async") || tag.has_attr("defer");
  if (!src.empty()) {
    auto fetch = fetches_.fetch(
        http::resolve(main_url_, src),
        priority_for(http::ResourceType::kJs, in_head_, is_async));
    script.fetch = fetch;
    if (is_async) {
      // Executes on arrival without blocking the parser.
      Fetch::Subscriber sub;
      sub.on_complete = [this, script](const Fetch&) {
        execute_script(script);
      };
      fetch->subscribe(std::move(sub));
      return;
    }
    parser_yield_ = true;  // even an instant script costs an exec task
    blocked_script_ = std::move(script);
    Fetch::Subscriber sub;
    sub.on_complete = [this](const Fetch&) { maybe_resume_parser(); };
    fetch->subscribe(std::move(sub));
    maybe_resume_parser();  // may already be pushed & complete
    return;
  }
  // Inline script: waits for earlier stylesheets (CSSOM), then executes.
  parser_yield_ = true;
  script.inline_size = tag.text.size();
  blocked_script_ = std::move(script);
  maybe_resume_parser();
}

void Renderer::execute_script(const BlockedScript& script) {
  double cost = script.exec_ms_attr;
  if (cost < 0) {
    const double size = script.fetch
                            ? static_cast<double>(script.fetch->size())
                            : static_cast<double>(script.inline_size);
    cost = size / kJsExecRateBytesPerMs;
  }
  main_.post(cost, [this, loads = script.data_loads] {
    if (!loads.empty()) {
      for (auto url_sv : util::split(loads, ',')) {
        auto parsed = http::parse_url(util::trim(url_sv));
        if (!parsed) continue;
        const auto type = http::classify("", parsed->path);
        fetches_.fetch(*parsed, priority_for(type, false, false));
      }
    }
    schedule_paint();
    check_onload();
  });
}

void Renderer::maybe_resume_parser() {
  if (!blocked_script_) return;
  const BlockedScript& script = *blocked_script_;
  if (script.fetch && !script.fetch->complete()) return;
  if (!sheets_loaded_through(script.sheet_epoch)) return;
  BlockedScript ready = std::move(*blocked_script_);
  blocked_script_.reset();
  execute_script(ready);
  schedule_parse();  // parser resumes behind the exec task
}

// ------------------------------------------------------------------ paint

ElementPath Renderer::current_path() const {
  ElementPath path;
  path.chain = open_elements_;
  return path;
}

void Renderer::add_text_unit(double chars, bool heading) {
  PaintUnit unit;
  unit.kind = PaintUnit::Kind::kText;
  const double lines =
      heading ? 1.5 : std::max(1.0, std::ceil(chars / kCharsPerLine));
  unit.height = lines * kLineHeightPx;
  unit.y_top = y_cursor_;
  y_cursor_ += unit.height;
  unit.weight = static_cast<double>(kViewportWidth) * unit.height;
  unit.above_fold = unit.y_top < kViewportHeight;
  unit.sheet_epoch = sheets_.size();
  unit.path = current_path();
  if (unit.path.chain.empty()) {
    unit.path.chain.push_back({heading ? "h1" : "p", {}, ""});
  }
  if (unit.above_fold) total_af_weight_ += unit.weight;
  units_.push_back(std::move(unit));
  schedule_paint();
}

void Renderer::add_image_unit(const HtmlToken& tag,
                              const std::shared_ptr<Fetch>& fetch) {
  PaintUnit unit;
  unit.kind = PaintUnit::Kind::kImage;
  const auto h_attr = tag.attr("height");
  const auto w_attr = tag.attr("width");
  const double height = h_attr.empty()
                            ? kDefaultImageHeight
                            : std::atof(std::string(h_attr).c_str());
  const double width = w_attr.empty()
                           ? kViewportWidth / 2.0
                           : std::atof(std::string(w_attr).c_str());
  unit.height = height;
  unit.y_top = y_cursor_;
  y_cursor_ += height;
  unit.weight = width * height;
  unit.above_fold = unit.y_top < kViewportHeight;
  unit.sheet_epoch = sheets_.size();
  unit.resource = fetch;
  if (unit.above_fold) total_af_weight_ += unit.weight;
  units_.push_back(std::move(unit));
  schedule_paint();
}

std::optional<std::string> Renderer::required_font(
    const PaintUnit& unit) const {
  if (unit.kind != PaintUnit::Kind::kText) return std::nullopt;
  for (const auto& sheet : sheets_) {
    if (!sheet.loaded) continue;
    for (const auto& rule : sheet.model->rules) {
      const std::string& family = rule.font_family();
      if (family.empty()) continue;
      if (!matches(rule, unit.path)) continue;
      if (fonts_.count(family) != 0) return family;
    }
  }
  return std::nullopt;
}

bool Renderer::unit_paintable(const PaintUnit& unit) const {
  if (!sheets_loaded_through(unit.sheet_epoch)) return false;
  if (unit.resource && !unit.resource->complete()) return false;
  if (const auto font = required_font(unit)) {
    const auto it = fonts_.find(*font);
    if (it != fonts_.end() && !it->second->complete()) return false;
  }
  return true;
}

double Renderer::unit_fraction(const PaintUnit& unit) const {
  // Progressive decoding: an image area approaches visual completeness as
  // its bytes arrive (baseline/progressive JPEG rendering — WebPageTest's
  // frame comparison credits partially decoded images).
  if (!sheets_loaded_through(unit.sheet_epoch)) return 0;
  if (unit.kind == PaintUnit::Kind::kText) {
    if (const auto font = required_font(unit)) {
      const auto it = fonts_.find(*font);
      if (it != fonts_.end() && !it->second->complete()) return 0;
    }
    return 1;
  }
  if (!unit.resource) return 1;
  if (unit.resource->complete()) return 1;
  const std::size_t have = unit.resource->size();
  if (have == 0) return 0;
  const std::size_t expect = unit.resource->expected_size();
  if (expect == 0) return 0;
  const double frac = static_cast<double>(have) /
                      static_cast<double>(expect);
  return std::min(0.95, frac);  // never fully complete until all bytes
}

void Renderer::schedule_paint() {
  if (paint_scheduled_) return;
  paint_scheduled_ = true;
  const sim::Time next = ((sim_.now() / kPaintInterval) + 1) * kPaintInterval;
  sim_.schedule_at(next, [this] {
    // Paint runs on the main thread: style/layout/compositing cost per
    // frame, so a busy thread delays visual progress.
    main_.post(2.0, [this] {
      paint_scheduled_ = false;
      evaluate_paint();
    });
  });
}

void Renderer::evaluate_paint() {
  bool changed = false;
  bool in_progress = false;
  for (auto& unit : units_) {
    if (unit.painted || !unit.above_fold) continue;
    const double frac = unit_fraction(unit);
    if (frac > unit.painted_fraction) {
      painted_weight_ += (frac - unit.painted_fraction) * unit.weight;
      unit.painted_fraction = frac;
      changed = true;
    }
    if (frac >= 1.0) {
      unit.painted = true;
    } else if (frac > 0) {
      in_progress = true;  // poll the next frame while bytes trickle in
    }
  }
  if (changed) {
    visual_.record(sim_.now(), painted_weight_);
    if (config_.trace != nullptr) {
      config_.trace->counter(config_.trace_track, "browser", "painted_weight",
                             painted_weight_);
    }
  }
  if (in_progress) schedule_paint();
}

// ----------------------------------------------------------------- onload

void Renderer::check_onload() {
  schedule_paint();
  if (onload_fired_ || !parse_complete_) return;
  if (blocked_script_) return;
  if (fetches_.outstanding() > 0) return;
  onload_fired_ = true;
  onload_time_ = sim_.now();
  if (config_.trace != nullptr) {
    config_.trace->instant(config_.trace_track, "browser", "mark.onload");
  }
  // Visual progress is finalized by the page-load driver once the event
  // queue drains: paints may still land on frame boundaries after onload.
}

}  // namespace h2push::browser

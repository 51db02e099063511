#include "core/critical_css.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "browser/config.h"
#include "browser/css.h"
#include "browser/html.h"
#include "http/url.h"
#include "util/strings.h"

namespace h2push::core {
namespace {

using browser::ElementPath;
// The renderer's layout model (browser/render.cc), so both agree on the fold.
using browser::kCharsPerLine;
using browser::kDefaultImageHeight;
using browser::kLineHeightPx;
using browser::kViewportHeight;

struct LayoutPass {
  std::vector<ElementPath> above_fold_paths;
  std::vector<std::string> stylesheets;   // document order
  bool head_stylesheet = false;
  std::vector<std::string> blocking_js;   // head + early body sync scripts
  std::vector<std::string> head_blocking_js;
  std::vector<std::string> af_images;

  void run(const web::Site& site) {
    const auto* main = site.find(site.main_url);
    if (main == nullptr || !main->body) return;
    const std::string& html = *main->body;
    browser::HtmlTokenizer tok(&html);
    std::vector<ElementPath::Entry> stack;
    double y = 0;
    double text_chars = 0;
    int text_depth = 0;
    bool in_head = true;
    const double body_early_limit =
        static_cast<double>(html.size()) * 0.3;

    auto record_path = [&](ElementPath::Entry leaf) {
      ElementPath path;
      path.chain = stack;
      path.chain.push_back(std::move(leaf));
      above_fold_paths.push_back(std::move(path));
    };
    auto record_container = [&] {
      if (y < kViewportHeight && !stack.empty()) {
        ElementPath path;
        path.chain = stack;
        above_fold_paths.push_back(std::move(path));
      }
    };

    while (auto t = tok.next()) {
      switch (t->kind) {
        case browser::HtmlToken::Kind::kText:
          if (text_depth > 0)
            text_chars += static_cast<double>(t->text.size());
          break;
        case browser::HtmlToken::Kind::kEndTag: {
          if (t->name == "head") in_head = false;
          if ((t->name == "p" || t->name == "h1" || t->name == "h2") &&
              text_depth > 0) {
            const double lines =
                t->name == "p"
                    ? std::max(1.0, std::ceil(text_chars / kCharsPerLine))
                    : 1.5;
            const double height = lines * kLineHeightPx;
            if (y < kViewportHeight && !stack.empty() &&
                stack.back().tag == t->name) {
              // The stack already ends with the element itself.
              ElementPath path;
              path.chain = stack;
              above_fold_paths.push_back(std::move(path));
            }
            y += height;
            --text_depth;
            text_chars = 0;
          }
          if (!stack.empty() && stack.back().tag == t->name) {
            stack.pop_back();
          }
          break;
        }
        case browser::HtmlToken::Kind::kStartTag: {
          if (t->name == "body") in_head = false;
          if (t->name == "link") {
            if (util::iequals(t->attr("rel"), "stylesheet")) {
              const auto href = t->attr("href");
              if (!href.empty()) {
                stylesheets.push_back(
                    http::resolve(site.main_url, href).str());
                if (in_head) head_stylesheet = true;
              }
            }
            break;
          }
          if (t->name == "script") {
            const auto src = t->attr("src");
            const bool is_async =
                t->has_attr("async") || t->has_attr("defer");
            if (!src.empty() && !is_async &&
                (in_head ||
                 static_cast<double>(t->begin) < body_early_limit)) {
              const std::string url =
                  http::resolve(site.main_url, src).str();
              blocking_js.push_back(url);
              if (in_head) head_blocking_js.push_back(url);
            }
            break;
          }
          if (t->name == "img") {
            const auto h_attr = t->attr("height");
            const double height =
                h_attr.empty() ? kDefaultImageHeight
                               : std::atof(std::string(h_attr).c_str());
            if (y < kViewportHeight) {
              const auto src = t->attr("src");
              if (!src.empty()) {
                af_images.push_back(http::resolve(site.main_url, src).str());
              }
              ElementPath::Entry leaf;
              leaf.tag = "img";
              for (auto cls : util::split(t->attr("class"), ' ')) {
                if (!util::trim(cls).empty())
                  leaf.classes.emplace_back(util::trim(cls));
              }
              record_path(std::move(leaf));
            }
            y += height;
            break;
          }
          // Generic open element.
          if (!t->self_closing && t->name != "meta" && t->name != "br") {
            ElementPath::Entry entry;
            entry.tag = t->name;
            for (auto cls : util::split(t->attr("class"), ' ')) {
              if (!util::trim(cls).empty())
                entry.classes.emplace_back(util::trim(cls));
            }
            entry.id = std::string(t->attr("id"));
            stack.push_back(std::move(entry));
            if (t->name == "div" || t->name == "section") record_container();
            if (t->name == "p" || t->name == "h1" || t->name == "h2") {
              ++text_depth;
              text_chars = 0;
            }
          }
          break;
        }
      }
    }
  }
};

}  // namespace

std::vector<std::string> CriticalAnalysis::critical_resources() const {
  std::vector<std::string> out;
  out.insert(out.end(), blocking_js.begin(), blocking_js.end());
  out.insert(out.end(), fonts.begin(), fonts.end());
  out.insert(out.end(), af_images.begin(), af_images.end());
  out.insert(out.end(), bg_images.begin(), bg_images.end());
  return out;
}

CriticalAnalysis analyze_critical(const web::Site& site) {
  CriticalAnalysis out;
  LayoutPass layout;
  layout.run(site);
  out.stylesheets = layout.stylesheets;
  out.has_blocking_css = layout.head_stylesheet;
  out.blocking_js = layout.blocking_js;
  out.head_blocking_js = layout.head_blocking_js;
  out.af_images = layout.af_images;

  std::set<std::string> needed_fonts;
  std::string critical;
  for (const auto& sheet_url : layout.stylesheets) {
    auto url = http::parse_url(sheet_url);
    if (!url) continue;
    const auto* exchange = site.store->find(url->host, url->path);
    if (exchange == nullptr || !exchange->body) continue;
    out.original_css_bytes += exchange->body->size();
    const auto sheet = browser::parse_css_shared(*exchange->body);
    for (const auto& rule : sheet->rules) {
      bool is_critical = false;
      for (const auto& path : layout.above_fold_paths) {
        if (browser::matches(rule, path)) {
          is_critical = true;
          break;
        }
      }
      if (!is_critical) continue;
      critical += rule.text;
      critical += '\n';
      const std::string& family = rule.font_family();
      if (!family.empty()) needed_fonts.insert(family);
      for (const auto& bg : rule.urls()) {
        out.bg_images.push_back(http::resolve(site.main_url, bg).str());
      }
    }
    // @font-face blocks for the families critical rules use.
    for (const auto& face : sheet->font_faces) {
      if (needed_fonts.count(face.family) != 0) {
        critical += face.text;
        critical += '\n';
        if (!face.url.empty()) {
          out.fonts.push_back(http::resolve(site.main_url, face.url).str());
        }
      }
    }
  }
  // Dedup while preserving order.
  auto dedup = [](std::vector<std::string>& v) {
    std::set<std::string> seen;
    std::vector<std::string> kept;
    for (auto& s : v) {
      if (seen.insert(s).second) kept.push_back(std::move(s));
    }
    v = std::move(kept);
  };
  dedup(out.bg_images);
  dedup(out.fonts);
  dedup(out.af_images);
  dedup(out.blocking_js);
  dedup(out.head_blocking_js);
  out.critical_css_text = std::move(critical);
  return out;
}

std::size_t head_end_offset(const web::Site& site) {
  const auto* main = site.find(site.main_url);
  if (main == nullptr || !main->body) return 4096;
  const std::size_t pos = main->body->find("</head>");
  if (pos == std::string::npos) return 4096;
  // "after </head> and first bytes of <body>" — include a small margin so
  // the client sees the opening of the body before the switch.
  return pos + 7 + 512;
}

}  // namespace h2push::core

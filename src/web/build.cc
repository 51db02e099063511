// Site synthesis: turn a PagePlan into real HTML/CSS bytes + a record store.
#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/rng.h"
#include "util/strings.h"
#include "web/site.h"

namespace h2push::web {
namespace {

using http::ResourceType;
using Placement = ResourcePlan::Placement;

const char* kWords[] = {"latency",  "stream",  "render",   "protocol",
                        "viewport", "request", "response", "document",
                        "transfer", "network", "browser",  "critical",
                        "resource", "push",    "frame",    "object"};

/// Deterministic filler prose of roughly `bytes` length.
std::string filler_text(std::size_t bytes, util::Rng& rng) {
  std::string out;
  out.reserve(bytes + 16);
  while (out.size() < bytes) {
    out += kWords[rng.index(std::size(kWords))];
    out += ' ';
  }
  if (out.size() > bytes) out.resize(bytes);
  return out;
}

/// Pseudo-binary filler for images/fonts/JS bodies.
std::string filler_blob(std::size_t bytes, char tag) {
  std::string out;
  out.reserve(bytes);
  static const char pattern[] =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ+/";
  while (out.size() + 64 <= bytes) out.append(pattern, 64);
  out.append(bytes - out.size(), tag);
  return out;
}

/// "#<i>", the placeholder of paragraph i. Appended, not
/// "#" + std::to_string(i): GCC 12's -O3 -Wrestrict misreads the insert at
/// the front of a temporary string.
std::string placeholder(int i) {
  std::string out = "#";
  out += std::to_string(i);
  return out;
}

std::string exec_attr(double ms) {
  if (ms <= 0) return {};
  char buf[48];
  std::snprintf(buf, sizeof(buf), " data-exec-ms=\"%.2f\"", ms);
  return buf;
}

/// Emit the reference markup for a subresource.
std::string ref_markup(const ResourcePlan& r) {
  const std::string url = r.url();
  switch (r.type) {
    case ResourceType::kCss:
      return "<link rel=\"stylesheet\" href=\"" + url + "\">\n";
    case ResourceType::kJs: {
      std::string tag = "<script src=\"" + url + "\"";
      if (r.async) tag += " async";
      if (!r.injector.empty()) {
        // (injector refers to resources this script loads; set by caller)
      }
      tag += exec_attr(r.exec_cost_ms);
      return tag + "></script>\n";
    }
    case ResourceType::kImage: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), " width=\"%d\" height=\"%d\"",
                    r.display_width, r.display_height);
      return "<img src=\"" + url + "\"" + buf + ">\n";
    }
    case ResourceType::kXhr:
    case ResourceType::kOther:
      // Fetched by script; no markup (handled via data-loads).
      return {};
    case ResourceType::kHtml:
    case ResourceType::kFont:
      return {};  // fonts are referenced from CSS only
  }
  return {};
}

/// Synthesize stylesheet content for `css`, covering its kFromCss children
/// and the paragraph/hero classes, padded to the target size.
std::string build_css(const PagePlan& plan, const ResourcePlan& css,
                      util::Rng& rng) {
  std::ostringstream out;
  out << "/* " << css.path << " generated stylesheet */\n";
  // @font-face and background-image children hidden inside this sheet.
  for (const auto& r : plan.resources) {
    if (r.placement != Placement::kFromCss || r.css_parent != css.path) {
      continue;
    }
    if (r.type == ResourceType::kFont) {
      out << "@font-face { font-family: " << r.font_family << "; src: url("
          << r.url() << ") format(\"woff2\"); }\n";
    } else if (r.type == ResourceType::kImage) {
      out << ".hero { background-image: url(" << r.url()
          << "); background-size: cover; }\n";
    }
  }
  // Layout rules for the hero and paragraph classes; rules for above-fold
  // classes are what critical-CSS extraction must retain.
  out << ".hero { min-height: 240px; display: block; }\n";
  out << "h1 { font-size: 32px; margin: 8px; }\n";
  const int paragraphs = plan.text_blocks;
  for (int i = 0; i < paragraphs; ++i) {
    out << ".t" << i << " { margin: 4px; line-height: 24px; color: #"
        << std::hex << (0x111111 + i * 0x010203) << std::dec << "; }\n";
  }
  // Fonts used by above-fold text.
  for (const auto& r : plan.resources) {
    if (r.type == ResourceType::kFont && r.css_parent == css.path) {
      out << ".ft-" << r.font_family << " { font-family: " << r.font_family
          << ", sans-serif; }\n";
    }
  }
  // Filler rules for classes never used above the fold.
  std::string body = out.str();
  std::ostringstream pad;
  int n = 0;
  while (body.size() + static_cast<std::size_t>(pad.tellp()) + 80 <
         css.size) {
    pad << ".x" << n << "-" << rng.uniform_int(0, 9999)
        << " { margin: " << (n % 13) << "px; padding: " << (n % 7)
        << "px; border-color: #" << std::hex
        << rng.uniform_int(0, 0xffffff) << std::dec << "; }\n";
    ++n;
  }
  body += pad.str();
  if (body.size() + 4 < css.size) {
    body += "/*";
    body += filler_blob(css.size - body.size() - 2, '*');
    body += "*/";
  }
  return body;
}

std::string injected_loads_attr(const PagePlan& plan,
                                const ResourcePlan& script) {
  std::string urls;
  for (const auto& r : plan.resources) {
    if (r.placement == Placement::kScriptInjected &&
        r.injector == script.path) {
      if (!urls.empty()) urls += ',';
      urls += r.url();
    }
  }
  if (urls.empty()) return {};
  return " data-loads=\"" + urls + "\"";
}

}  // namespace

Site build_site(PagePlan plan,
                const std::map<std::string, std::string>& body_overrides) {
  util::Rng rng(plan.seed ^ util::hash64(plan.name));
  Site site;
  site.name = plan.name;
  site.main_url = http::Url{"https", plan.primary_host, 443, "/"};
  site.store = std::make_shared<replay::RecordStore>();

  // --- origin map ---
  // Hosts without an explicit IP get a unique one.
  int auto_ip = 50;
  auto ip_for = [&](const std::string& host) {
    auto it = plan.host_ip.find(host);
    if (it != plan.host_ip.end()) return it->second;
    std::string ip = "10.0." + std::to_string(auto_ip++) + ".1";
    plan.host_ip[host] = ip;
    return ip;
  };
  ip_for(plan.primary_host);
  for (const auto& r : plan.resources) ip_for(r.host);
  for (const auto& [host, ip] : plan.host_ip) site.origins.add_host(host, ip);
  site.origins.generate_certificates();

  // --- partition resources by placement ---
  std::vector<const ResourcePlan*> head, body_early, body_middle, body_late;
  std::vector<const ResourcePlan*> af_images;
  for (const auto& r : plan.resources) {
    switch (r.placement) {
      case Placement::kHead:
        head.push_back(&r);
        break;
      case Placement::kBodyEarly:
        if (r.type == ResourceType::kImage && r.above_fold) {
          af_images.push_back(&r);
        } else {
          body_early.push_back(&r);
        }
        break;
      case Placement::kBodyMiddle:
        body_middle.push_back(&r);
        break;
      case Placement::kBodyLate:
        body_late.push_back(&r);
        break;
      case Placement::kFromCss:
      case Placement::kScriptInjected:
        break;  // referenced from CSS / scripts, not the HTML
    }
  }

  // --- HTML assembly ---
  // Scaffold first; text paragraphs are padded afterwards to reach
  // plan.html_size.
  const int n_par = std::max(plan.text_blocks, plan.above_fold_text_blocks);
  std::vector<std::string> parts;  // interleaved: markup / #<paragraph idx>
  std::ostringstream h;
  h << "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n<title>"
    << plan.name << "</title>\n";
  if (plan.preload_fonts) {
    for (const auto& r : plan.resources) {
      if (r.type == ResourceType::kFont) {
        h << "<link rel=\"preload\" as=\"font\" href=\"" << r.url()
          << "\" crossorigin>\n";
      }
    }
  }
  for (const auto* r : head) {
    std::string m = ref_markup(*r);
    if (r->type == ResourceType::kJs) {
      // Re-emit with data-loads if this script injects resources.
      const std::string loads = injected_loads_attr(plan, *r);
      if (!loads.empty()) {
        m = "<script src=\"" + r->url() + "\"" + (r->async ? " async" : "") +
            loads + exec_attr(r->exec_cost_ms) + "></script>\n";
      }
    }
    h << m;
  }
  if (plan.inline_css_fraction > 0) {
    const auto bytes = static_cast<std::size_t>(
        plan.inline_css_fraction * static_cast<double>(plan.html_size));
    h << "<style>\n.hero { min-height: 240px; }\nh1 { font-size: 32px; }\n/*"
      << filler_blob(bytes > 64 ? bytes - 64 : 0, 'c') << "*/\n</style>\n";
  }
  h << "</head>\n<body>\n<div class=\"hero\">\n<h1>" << plan.name
    << "</h1>\n";
  parts.push_back(h.str());

  // Above-the-fold: hero images and the first paragraphs.
  std::string font_class;
  for (const auto& r : plan.resources) {
    if (r.type == ResourceType::kFont && r.above_fold) {
      font_class = " ft-" + r.font_family;
      break;
    }
  }
  for (const auto* r : af_images) parts.push_back(ref_markup(*r));
  for (int i = 0; i < plan.above_fold_text_blocks; ++i) {
    // Custom web fonts typically style the headline/lede only; body text
    // renders with system fonts (so a late font blocks a small slice of
    // the viewport, not all of it).
    const std::string cls =
        i == 0 ? "t" + std::to_string(i) + font_class : "t" + std::to_string(i);
    parts.push_back("<p class=\"" + cls + "\">");
    parts.push_back(placeholder(i));
    parts.push_back("</p>\n");
  }
  parts.push_back("</div>\n");

  if (plan.inline_js_fraction > 0) {
    const auto bytes = static_cast<std::size_t>(
        plan.inline_js_fraction * static_cast<double>(plan.html_size));
    parts.push_back("<script" + exec_attr(plan.inline_js_exec_ms) + ">/*" +
                    filler_blob(bytes > 16 ? bytes - 16 : 0, 'j') +
                    "*/</script>\n");
  }
  for (const auto* r : body_early) {
    std::string m = ref_markup(*r);
    if (r->type == ResourceType::kJs) {
      const std::string loads = injected_loads_attr(plan, *r);
      if (!loads.empty()) {
        m = "<script src=\"" + r->url() + "\"" + (r->async ? " async" : "") +
            loads + exec_attr(r->exec_cost_ms) + "></script>\n";
      }
    }
    parts.push_back(m);
  }

  // Body middle: paragraphs interleaved with mid-document resources.
  const int mid_pars = std::max(1, n_par - plan.above_fold_text_blocks);
  std::size_t mid_idx = 0;
  for (int i = plan.above_fold_text_blocks; i < n_par; ++i) {
    parts.push_back("<p class=\"t" + std::to_string(i) + "\">");
    parts.push_back(placeholder(i));
    parts.push_back("</p>\n");
    // Spread middle resources across paragraphs.
    const std::size_t target =
        body_middle.size() * static_cast<std::size_t>(
            i - plan.above_fold_text_blocks + 1) /
        static_cast<std::size_t>(mid_pars);
    while (mid_idx < target && mid_idx < body_middle.size()) {
      const auto* r = body_middle[mid_idx++];
      std::string m = ref_markup(*r);
      if (r->type == ResourceType::kJs) {
        const std::string loads = injected_loads_attr(plan, *r);
        if (!loads.empty()) {
          m = "<script src=\"" + r->url() + "\"" +
              (r->async ? " async" : "") + loads +
              exec_attr(r->exec_cost_ms) + "></script>\n";
        }
      }
      parts.push_back(m);
    }
  }
  for (const auto* r : body_late) parts.push_back(ref_markup(*r));
  parts.push_back("</body>\n</html>\n");

  // Pad paragraphs to reach the HTML size target. Above-fold paragraphs are
  // kept short (they must fit in the viewport); the rest absorbs the bulk.
  std::size_t scaffold = 0;
  int placeholders = 0;
  for (const auto& p : parts) {
    if (!p.empty() && p[0] == '#') {
      ++placeholders;
    } else {
      scaffold += p.size();
    }
  }
  const std::size_t budget =
      plan.html_size > scaffold ? plan.html_size - scaffold : 0;
  const std::size_t af_cap = 420;  // bytes per above-fold paragraph
  std::size_t af_total = std::min<std::size_t>(
      budget, af_cap * static_cast<std::size_t>(plan.above_fold_text_blocks));
  const int below = std::max(1, placeholders - plan.above_fold_text_blocks);
  const std::size_t per_below =
      placeholders > plan.above_fold_text_blocks
          ? (budget - af_total) / static_cast<std::size_t>(below)
          : 0;

  std::string html;
  html.reserve(plan.html_size + 1024);
  for (auto& p : parts) {
    if (!p.empty() && p[0] == '#') {
      const int idx = std::atoi(p.c_str() + 1);
      const std::size_t n = idx < plan.above_fold_text_blocks
                                ? std::min<std::size_t>(af_cap, af_total)
                                : per_below;
      html += filler_text(n, rng);
    } else {
      html += p;
    }
  }

  // --- record store ---
  auto add = [&](const std::string& host, const std::string& path,
                 ResourceType type, std::string body, bool recorded_pushed) {
    replay::RecordedExchange e;
    e.request.method = "GET";
    e.request.url = http::Url{"https", host, 443, path};
    e.response.status = 200;
    e.response.type = type;
    e.response.body_size = body.size();
    e.body = std::make_shared<const std::string>(std::move(body));
    e.recorded_pushed = recorded_pushed;
    site.store->add(std::move(e));
  };

  add(plan.primary_host, "/", ResourceType::kHtml, std::move(html), false);
  for (const auto& r : plan.resources) {
    if (const auto it = body_overrides.find(r.url());
        it != body_overrides.end()) {
      add(r.host, r.path, r.type, it->second, r.recorded_pushed);
      continue;
    }
    std::string body;
    switch (r.type) {
      case ResourceType::kCss:
        body = build_css(plan, r, rng);
        break;
      case ResourceType::kJs:
        body = "/*js*/" + filler_blob(r.size > 6 ? r.size - 6 : 0, 'J');
        break;
      case ResourceType::kImage:
        body = filler_blob(r.size, 'I');
        break;
      case ResourceType::kFont:
        body = filler_blob(r.size, 'F');
        break;
      default:
        body = filler_blob(r.size, 'B');
        break;
    }
    add(r.host, r.path, r.type, std::move(body), r.recorded_pushed);
  }

  site.plan = std::move(plan);
  return site;
}

std::vector<std::string> resource_urls(const Site& site) {
  std::vector<std::string> out;
  out.reserve(site.plan.resources.size());
  for (const auto& r : site.plan.resources) out.push_back(r.url());
  return out;
}

std::vector<std::string> pushable_urls(const Site& site) {
  std::vector<std::string> out;
  for (const auto& r : site.plan.resources) {
    if (site.origins.is_authoritative(site.plan.primary_host, r.host)) {
      out.push_back(r.url());
    }
  }
  return out;
}

}  // namespace h2push::web

#include "core/optimize.h"

#include <algorithm>
#include <set>

namespace h2push::core {
namespace {

std::vector<std::string> dedup_concat(
    std::initializer_list<const std::vector<std::string>*> lists) {
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const auto* list : lists) {
    for (const auto& url : *list) {
      if (seen.insert(url).second) out.push_back(url);
    }
  }
  return out;
}

}  // namespace

OptimizedSite apply_critical_css(const web::Site& site) {
  OptimizedSite out;
  out.analysis = analyze_critical(site);

  // Nothing render-blocking to split: the page already paints from inline
  // styles. Adding a blocking critical.css fetch would only hurt, so the
  // restructuring is a no-op (the paper's "already optimized" sites).
  if (!out.analysis.has_blocking_css ||
      out.analysis.critical_css_text.empty()) {
    out.site = site;
    out.interleave_offset = head_end_offset(site);
    return out;
  }

  web::PagePlan plan = site.plan;
  // Move every render-blocking stylesheet to the end of <body>.
  for (auto& r : plan.resources) {
    if (r.type == http::ResourceType::kCss &&
        r.placement == web::ResourcePlan::Placement::kHead) {
      r.placement = web::ResourcePlan::Placement::kBodyLate;
    }
  }
  // Reference the critical CSS first in <head>.
  web::ResourcePlan critical;
  critical.path = "/critical.css";
  critical.host = plan.primary_host;
  critical.type = http::ResourceType::kCss;
  critical.size = out.analysis.critical_css_text.size();
  critical.placement = web::ResourcePlan::Placement::kHead;
  plan.resources.insert(plan.resources.begin(), critical);
  out.critical_css_url = critical.url();

  std::map<std::string, std::string> overrides;
  overrides[out.critical_css_url] = out.analysis.critical_css_text;
  out.site = web::build_site(std::move(plan), overrides);
  out.interleave_offset = head_end_offset(out.site);
  return out;
}

std::vector<StrategyArm> Fig6Arms::arms() const {
  return {
      {"no push", &base, no_push_},
      {"no push optimized", &optimized.site, no_push_opt_},
      {"push all", &base, push_all_},
      {"push all optimized", &optimized.site, push_all_opt_},
      {"push critical", &base, push_critical_},
      {"push critical optimized", &optimized.site, push_critical_opt_},
  };
}

Fig6Arms make_fig6_arms(const web::Site& unified,
                        const std::vector<std::string>& push_order) {
  Fig6Arms arms;
  arms.base = unified;
  arms.optimized = apply_critical_css(unified);
  const CriticalAnalysis& analysis = arms.optimized.analysis;

  // i) no push.
  arms.no_push_ = no_push();

  // ii) no push optimized: same baseline, restructured site.
  arms.no_push_opt_ = no_push();
  arms.no_push_opt_.name = "no-push-optimized";

  // iii) push all (computed request order, default scheduler).
  arms.push_all_ = push_all(unified, push_order);

  // v) push critical: the stylesheets plus critical above-the-fold
  //    resources, default scheduler.
  const auto critical_resources = analysis.critical_resources();
  arms.push_critical_ = push_list(
      "push-critical",
      filter_pushable(unified, dedup_concat({&analysis.stylesheets,
                                             &critical_resources})));

  // iv) push all optimized: critical CSS + critical resources interleaved,
  //     then every other pushable resource after the HTML.
  // Tailoring rule (the paper tunes strategies per site by inspecting the
  // render process): when nothing render-blocking exists, first paint
  // happens off the first HTML bytes — hard-switching to images before the
  // HTML would only delay it, so images are pushed after the parent
  // instead of inside the critical window.
  std::vector<std::string> critical_first;
  if (!arms.optimized.critical_css_url.empty()) {
    critical_first.push_back(arms.optimized.critical_css_url);
  }
  // Only resources gating the FIRST paint belong in the pause window:
  // <head> sync scripts block everything; body scripts only block content
  // after their position, which is usually below the fold.
  std::vector<std::string> after_parent;
  for (const auto& url : analysis.head_blocking_js) {
    critical_first.push_back(url);
  }
  for (const auto& url : analysis.blocking_js) {
    bool in_head = false;
    for (const auto& h : analysis.head_blocking_js) {
      if (h == url) { in_head = true; break; }
    }
    if (!in_head) after_parent.push_back(url);
  }
  if (analysis.has_blocking_css) {
    // Fonts and above-fold imagery hide behind the blocking stylesheets:
    // delivering them during the pause is what unlocks the first paint.
    for (const auto& url : analysis.fonts) critical_first.push_back(url);
    for (const auto& url : analysis.af_images) critical_first.push_back(url);
    for (const auto& url : analysis.bg_images) critical_first.push_back(url);
  } else {
    // Already-optimized page: everything paintable is discoverable from
    // the first HTML bytes (inline styles + preloads), so pausing the
    // parent for them would only delay the paint they feed.
    for (const auto& url : analysis.fonts) after_parent.push_back(url);
    for (const auto& url : analysis.af_images) after_parent.push_back(url);
    for (const auto& url : analysis.bg_images) after_parent.push_back(url);
  }
  const auto everything = filter_pushable(
      arms.optimized.site,
      dedup_concat(
          {&critical_first, &after_parent, &push_order,
           &analysis.stylesheets}));
  arms.push_all_opt_ = push_list("push-all-optimized", everything);
  arms.push_all_opt_.interleaving = true;
  arms.push_all_opt_.interleave_offset = arms.optimized.interleave_offset;
  arms.push_all_opt_.critical_count =
      filter_pushable(arms.optimized.site, critical_first).size();

  // vi) push critical optimized: the interleaved critical set, plus the
  //     deferred above-the-fold images right after the parent.
  arms.push_critical_opt_ = push_list(
      "push-critical-optimized",
      filter_pushable(arms.optimized.site,
                      dedup_concat({&critical_first, &after_parent})));
  arms.push_critical_opt_.interleaving = true;
  arms.push_critical_opt_.interleave_offset =
      arms.optimized.interleave_offset;
  arms.push_critical_opt_.critical_count =
      filter_pushable(arms.optimized.site, critical_first).size();
  return arms;
}

}  // namespace h2push::core

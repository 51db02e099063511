// Critical-CSS extraction and above-the-fold resource identification —
// the penthouse [4] step of the paper's optimized strategies (§5).
//
// A static pass over the recorded site: parse the HTML, run the same
// single-column layout model the renderer uses to find the elements above
// the fold, parse every first-party stylesheet, and keep exactly the rules
// that match an above-the-fold element (plus the @font-face blocks those
// rules need). The result feeds two things:
//   - the critical.css used by the "* optimized" strategies (referenced in
//     <head>, all original stylesheets moved to the end of <body>), and
//   - the critical resource list (blocking JS, above-fold images, fonts,
//     background images) for "push critical".
#pragma once

#include <string>
#include <vector>

#include "web/site.h"

namespace h2push::core {

struct CriticalAnalysis {
  /// Concatenated critical rules + required @font-face blocks.
  std::string critical_css_text;
  /// All first-party stylesheet URLs in document order.
  std::vector<std::string> stylesheets;
  /// Whether any stylesheet is referenced in <head> (render-blocking).
  /// Pages that inline critical CSS and defer the rest have none — there
  /// is nothing for the critical-CSS restructuring to improve (paper §5:
  /// "some websites already employ optimizations such as inlining").
  bool has_blocking_css = false;
  std::size_t original_css_bytes = 0;

  /// Above-the-fold critical resources, by role.
  std::vector<std::string> blocking_js;  // sync scripts in <head>/early body
  std::vector<std::string> head_blocking_js;  // the <head> subset
  std::vector<std::string> af_images;    // <img> above the fold
  std::vector<std::string> fonts;        // fonts used above the fold
  std::vector<std::string> bg_images;    // critical-rule background images

  /// Everything push-critical, in the order the optimized strategies push:
  /// blocking JS, fonts, above-fold images, background images.
  std::vector<std::string> critical_resources() const;
};

CriticalAnalysis analyze_critical(const web::Site& site);

/// Byte offset of "</head>" (plus a small body margin) in the site's HTML —
/// the paper's interleaving switch point ("after </head> and first bytes of
/// <body>", e.g. 4 KB for w1, 12 KB for w16).
std::size_t head_end_offset(const web::Site& site);

}  // namespace h2push::core

// Optimized-site construction and the six §5 strategies.
//
// "no push optimized" restructures the page the way the paper does with
// penthouse: a computed critical CSS is referenced in <head> and every
// original stylesheet moves to the end of <body>. The "push * optimized"
// strategies additionally use the interleaving scheduler: critical CSS and
// critical above-the-fold resources are pushed during the hard switch after
// the <head> bytes; "push all optimized" pushes everything else after the
// HTML completes.
#pragma once

#include "core/critical_css.h"
#include "core/strategy.h"
#include "core/testbed.h"
#include "web/site.h"

namespace h2push::core {

struct OptimizedSite {
  web::Site site;  ///< restructured: critical.css in head, originals late
  CriticalAnalysis analysis;
  std::string critical_css_url;
  std::size_t interleave_offset = 4096;  ///< head-end switch point
};

OptimizedSite apply_critical_css(const web::Site& site);

/// The six experimental arms of Fig. 6 for one (already unified) site.
struct StrategyArm {
  std::string name;
  const web::Site* site;  ///< which variant of the page this arm serves
  Strategy strategy;
};

struct Fig6Arms {
  web::Site base;           // unified deployment
  OptimizedSite optimized;  // + critical-CSS restructuring

  std::vector<StrategyArm> arms() const;

 private:
  friend Fig6Arms make_fig6_arms(const web::Site&,
                                 const std::vector<std::string>&);
  Strategy no_push_, no_push_opt_, push_all_, push_all_opt_, push_critical_,
      push_critical_opt_;
};

Fig6Arms make_fig6_arms(const web::Site& unified,
                        const std::vector<std::string>& push_order);

}  // namespace h2push::core

#include "core/learner.h"

#include <algorithm>

#include "core/dependency.h"
#include "core/runner.h"
#include "stats/descriptive.h"

namespace h2push::core {
namespace {

struct Candidate {
  std::string name;
  Strategy strategy;
  bool optimized_site = false;
};

CandidateResult evaluate(const web::Site& site, const Strategy& strategy,
                         RunConfig config, int runs, double baseline_si,
                         ParallelRunner* runner) {
  const auto series = collect(
      runner != nullptr ? run_repeated(site, strategy, config, runs, *runner)
                        : run_repeated(site, strategy, config, runs));
  CandidateResult out;
  out.name = strategy.name;
  out.si_ms = series.si_median();
  out.plt_ms = series.plt_median();
  out.pushed_kb = stats::median(series.bytes_pushed) / 1024.0;
  out.si_vs_baseline =
      baseline_si > 0 ? (out.si_ms - baseline_si) / baseline_si : 0;
  return out;
}

}  // namespace

LearnerOutput learn_strategy(const web::Site& site, RunConfig config,
                             const LearnerConfig& learner,
                             ParallelRunner* runner) {
  LearnerOutput output;
  const auto order =
      runner != nullptr
          ? compute_push_order(site, config, learner.order_runs, *runner)
          : compute_push_order(site, config, learner.order_runs);
  output.optimized = apply_critical_css(site);
  const auto& analysis = output.optimized.analysis;
  const bool has_restructure = !output.optimized.critical_css_url.empty();

  std::vector<Candidate> candidates;
  candidates.push_back({"no-push", no_push(), false});
  candidates.push_back({"hint-all", hint_all(site, order.order), false});
  for (const std::size_t n : learner.amounts) {
    auto s = push_first_n(site, order.order, n);
    candidates.push_back({s.name, std::move(s), false});
  }
  candidates.push_back({"push-all", push_all(site, order.order), false});

  // Critical set, default scheduler.
  const auto critical = analysis.critical_resources();
  if (!critical.empty() || !analysis.stylesheets.empty()) {
    std::vector<std::string> urls = analysis.stylesheets;
    urls.insert(urls.end(), critical.begin(), critical.end());
    auto s = push_list("push-critical", filter_pushable(site, urls));
    if (!s.push_urls.empty()) {
      candidates.push_back({s.name, std::move(s), false});
    }
  }

  // Interleaved critical set at several offsets, on the restructured site
  // when restructuring applies.
  std::vector<std::string> interleaved;
  if (has_restructure) interleaved.push_back(output.optimized.critical_css_url);
  for (const auto& url : analysis.head_blocking_js) interleaved.push_back(url);
  for (const auto& url : analysis.fonts) interleaved.push_back(url);
  for (const auto& url : analysis.af_images) interleaved.push_back(url);
  const auto& candidate_site =
      has_restructure ? output.optimized.site : site;
  const auto pushable_interleaved =
      filter_pushable(candidate_site, interleaved);
  if (!pushable_interleaved.empty()) {
    for (const double factor : learner.offset_factors) {
      auto s = push_list("interleave@" + std::to_string(static_cast<int>(
                             factor * 100)) + "%",
                         pushable_interleaved);
      s.interleaving = true;
      s.interleave_offset = std::max<std::size_t>(
          512, static_cast<std::size_t>(
                   static_cast<double>(output.optimized.interleave_offset) *
                   factor));
      candidates.push_back({s.name, std::move(s), has_restructure});
    }
  }

  // Evaluate: baseline first, then everything against it.
  const auto baseline = evaluate(site, candidates[0].strategy, config,
                                 learner.runs_per_candidate, 0, runner);
  output.all.push_back(baseline);
  output.best = {candidates[0].strategy, false, baseline};
  double best_score = 0;  // relative SI gain, adjusted

  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const auto& candidate = candidates[i];
    const auto& run_site =
        candidate.optimized_site ? output.optimized.site : site;
    auto result = evaluate(run_site, candidate.strategy, config,
                           learner.runs_per_candidate, baseline.si_ms, runner);
    output.all.push_back(result);
    // Objective: relative SI gain; among near-ties prefer fewer pushed
    // bytes (a 1 MB push must buy real gain, §4.2.1).
    const double score =
        result.si_vs_baseline +
        0.00002 * result.pushed_kb;  // 50 KB ≈ 0.1 % SI penalty
    if (score < best_score - 1e-9 &&
        result.si_vs_baseline < -learner.min_gain) {
      best_score = score;
      output.best = {candidate.strategy, candidate.optimized_site, result};
    }
  }

  std::sort(output.all.begin(), output.all.end(),
            [](const CandidateResult& a, const CandidateResult& b) {
              return a.si_ms < b.si_ms;
            });
  return output;
}

}  // namespace h2push::core

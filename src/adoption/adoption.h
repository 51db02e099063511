// Fig. 1: adoption of HTTP/2 and Server Push over one year of monthly
// Alexa-1M scans (the paper's netray.io measurements). We model per-site
// adoption with logistic growth calibrated to the published endpoints
// (~120K -> ~240K H2 sites, ~400 -> ~800 push sites over 2017) and scan the
// population the way the measurement platform does.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace h2push::adoption {

// Calibrated to the paper's Fig. 1 (Alexa 1M over 2017).
inline constexpr double kH2InitialFraction = 0.12;
inline constexpr double kH2FinalFraction = 0.24;
inline constexpr double kPushInitialFraction = 0.0004;
inline constexpr double kPushFinalFraction = 0.0008;
inline constexpr int kScanMonths = 12;
inline constexpr std::uint64_t kSeed = 2017;

struct AdoptionModelConfig {
  std::size_t population = 1'000'000;
};

struct MonthlySample {
  int month = 0;           // 0 = January
  std::size_t h2_sites = 0;
  std::size_t push_sites = 0;
};

/// Simulate the year: every site draws adoption dates from the logistic
/// model; a monthly scan counts the sites that have adopted by then.
/// Each site's draws are counter-based in (kSeed, site index), so any
/// partition of the population reproduces the same totals.
std::vector<MonthlySample> simulate_adoption(const AdoptionModelConfig& cfg);

/// Scan only sites [begin, end). Summing the per-month counts of disjoint
/// ranges covering the population equals simulate_adoption(cfg) exactly —
/// the parallel bench harness fans ranges across its runner and merges.
std::vector<MonthlySample> simulate_adoption_range(std::size_t begin,
                                                   std::size_t end);

}  // namespace h2push::adoption

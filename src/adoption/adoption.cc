#include "adoption/adoption.h"

#include <cmath>

namespace h2push::adoption {

namespace {

// Per-month adoption probabilities: interpolate the cumulative adoption
// fraction with a logistic ramp between the initial and final fractions,
// then draw each site's adoption month. Logistic in t: slow start, faster
// middle — matches the measured curve shape better than a straight line.
double cumulative(double initial, double final_frac, double t01) {
  const double k = 4.0;
  const double l = 1.0 / (1.0 + std::exp(-k * (t01 - 0.5)));
  const double l0 = 1.0 / (1.0 + std::exp(k * 0.5));
  const double l1 = 1.0 / (1.0 + std::exp(-k * 0.5));
  const double ramp = (l - l0) / (l1 - l0);
  return initial + (final_frac - initial) * ramp;
}

double to_unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<MonthlySample> simulate_adoption_range(std::size_t begin,
                                                   std::size_t end) {
  constexpr auto kMonths = static_cast<std::size_t>(kScanMonths);
  std::vector<MonthlySample> samples(kMonths);
  std::vector<std::size_t> h2_by_month(kMonths, 0);
  std::vector<std::size_t> push_by_month(kMonths, 0);

  for (std::size_t site = begin; site < end; ++site) {
    // Counter-based draws: each site's pair of uniforms is a pure function
    // of (seed, site), so ranges compose and evaluation order is free.
    std::uint64_t ctr =
        kSeed ^ (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(site) +
                                          0x632be59bd9b4e019ULL));
    double u_h2 = to_unit(util::splitmix64(ctr));
    const double u_push = to_unit(util::splitmix64(ctr));
    // Push requires H2, and in practice push adopters are early, technically
    // invested H2 adopters: a site destined to enable push enables H2 at
    // least as early as push (scale its H2 draw below its push draw).
    const bool potential_pusher = u_push < kPushFinalFraction;
    if (potential_pusher) u_h2 = std::min(u_h2, u_push);
    bool h2 = false;
    bool push = false;
    for (int m = 0; m < kScanMonths; ++m) {
      const double t =
          static_cast<double>(m) / static_cast<double>(kScanMonths - 1);
      if (!h2 && u_h2 < cumulative(kH2InitialFraction, kH2FinalFraction, t)) {
        h2 = true;
      }
      if (h2 && !push &&
          u_push < cumulative(kPushInitialFraction, kPushFinalFraction, t)) {
        push = true;
      }
      if (h2) ++h2_by_month[static_cast<std::size_t>(m)];
      if (push) ++push_by_month[static_cast<std::size_t>(m)];
    }
  }
  for (int m = 0; m < kScanMonths; ++m) {
    samples[static_cast<std::size_t>(m)] = MonthlySample{
        m, h2_by_month[static_cast<std::size_t>(m)],
        push_by_month[static_cast<std::size_t>(m)]};
  }
  return samples;
}

std::vector<MonthlySample> simulate_adoption(const AdoptionModelConfig& cfg) {
  return simulate_adoption_range(0, cfg.population);
}

}  // namespace h2push::adoption

// Browser main-thread model.
//
// A single serialized compute resource: parsing, style calculation, script
// execution and paint all queue here FIFO, each with a millisecond cost. A
// site whose critical path is dominated by these costs is "computation
// bound" — the paper's s5/s8 cases where push cannot help because the
// network is not the bottleneck. Per-task lognormal jitter models client-
// side processing variance, the residual noise the paper still sees in the
// testbed (Fig. 2a) and the reason request orders differ between runs
// (§4.2 "the order is not stable across all runs").
#pragma once

#include <algorithm>
#include <utility>

#include "browser/config.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace h2push::browser {

class MainThread {
 public:
  MainThread(sim::Simulator& sim, util::Rng jitter_rng)
      : sim_(sim), rng_(jitter_rng) {}

  /// Queue a task costing `cost_ms` of main-thread time; `fn` runs when the
  /// cost has been "spent" (strictly after all previously queued tasks).
  /// `fn` goes straight into the simulator's event, unboxed.
  template <typename F>
  void post(double cost_ms, F&& fn) {
    double cost = cost_ms;
    if (cost > 0) cost *= rng_.lognormal(0.0, kTaskJitterSigma);
    const sim::Time start = std::max(sim_.now(), busy_until_);
    const sim::Time done = start + sim::from_ms(cost);
    busy_until_ = done;
    sim_.schedule_at(done, std::forward<F>(fn));
  }

 private:
  sim::Simulator& sim_;
  util::Rng rng_;
  sim::Time busy_until_ = 0;
};

}  // namespace h2push::browser

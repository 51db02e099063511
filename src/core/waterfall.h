// ASCII waterfall rendering for page loads — the textual equivalent of the
// DevTools network panel / WebPageTest waterfall the paper's authors used
// to inspect render processes when tailoring strategies (§4.3, §5).
#pragma once

#include <string>

#include "browser/page_load.h"

namespace h2push::trace {
class TraceRecorder;
}

namespace h2push::core {

/// Columns of the time axis.
inline constexpr int kWaterfallWidth = 72;

struct WaterfallOptions {
  std::size_t max_rows = 60; ///< truncate very large pages
};

/// Render resource timing bars ('■' transfer span, '·' wait-from-init),
/// one row per resource with pushed ones marked, plus PLT/SI markers.
std::string render_waterfall(const browser::PageLoadResult& result,
                             const WaterfallOptions& options = {});

/// Rebuild the resource-timing view of a finished run purely from its
/// trace: browser-track "fetch" async spans become resource rows, the
/// "mark.*" instants become the PLT / SpeedIndex / connectEnd reference
/// points, and byte counts come from the TraceSummary. The trace carries
/// the complete fetch lifecycle, so for a traced run this agrees with the
/// PageLoadResult the testbed returned.
browser::PageLoadResult result_from_trace(const trace::TraceRecorder& rec);

/// render_waterfall over result_from_trace — a waterfall without access to
/// the live run, e.g. from a recorder kept after the simulator was torn
/// down.
std::string render_waterfall_from_trace(const trace::TraceRecorder& rec,
                                        const WaterfallOptions& options = {});

}  // namespace h2push::core

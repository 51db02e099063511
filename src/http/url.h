// Minimal URL type: scheme://host[:port]/path. Enough for replay matching,
// push-authority checks, and origin grouping; query strings are kept as part
// of the path (replay matches full request targets).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/expected.h"

namespace h2push::http {

struct Url {
  std::string scheme = "https";
  std::string host;
  std::uint16_t port = 443;
  std::string path = "/";

  /// "https://host:port" with the port omitted when it is the default.
  std::string origin() const;
  /// Full serialization.
  std::string str() const;
  /// str() written over `out`, reusing its capacity.
  void str_into(std::string& out) const;

  bool operator==(const Url&) const = default;
};

/// Parse an absolute URL. Accepts https:// and http://.
util::Expected<Url, std::string> parse_url(std::string_view s);

/// Resolve a reference against a base: absolute URLs pass through,
/// "//host/x" inherits the scheme, "/x" inherits the origin, "x" resolves
/// relative to the base path's directory.
Url resolve(const Url& base, std::string_view ref);

}  // namespace h2push::http

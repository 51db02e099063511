#include "http/url.h"

#include <charconv>

#include "util/strings.h"

namespace h2push::http {

namespace {

/// "scheme://host[:port]" followed by `suffix`, written over `out` with
/// capacity for exactly its size.
void origin_then(const Url& url, std::string_view suffix, std::string& out) {
  const bool default_port = (url.scheme == "https" && url.port == 443) ||
                            (url.scheme == "http" && url.port == 80);
  char port[8] = {':'};
  std::size_t port_size = 0;
  if (!default_port) {
    port_size = static_cast<std::size_t>(
        std::to_chars(port + 1, port + sizeof port, url.port).ptr - port);
  }
  out.clear();
  out.reserve(url.scheme.size() + 3 + url.host.size() + port_size +
              suffix.size());
  out.append(url.scheme).append("://").append(url.host);
  out.append(port, port_size).append(suffix);
}

}  // namespace

std::string Url::origin() const {
  std::string out;
  origin_then(*this, {}, out);
  return out;
}

std::string Url::str() const {
  std::string out;
  origin_then(*this, path, out);
  return out;
}

void Url::str_into(std::string& out) const { origin_then(*this, path, out); }

util::Expected<Url, std::string> parse_url(std::string_view s) {
  Url url;
  if (util::starts_with(s, "https://")) {
    url.scheme = "https";
    url.port = 443;
    s.remove_prefix(8);
  } else if (util::starts_with(s, "http://")) {
    url.scheme = "http";
    url.port = 80;
    s.remove_prefix(7);
  } else {
    return util::make_unexpected(std::string("unsupported scheme: ") +
                                 std::string(s.substr(0, 16)));
  }
  const std::size_t slash = s.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? s : s.substr(0, slash);
  url.path = slash == std::string_view::npos ? "/" : std::string(s.substr(slash));
  if (authority.empty()) return util::make_unexpected("empty host");
  const std::size_t colon = authority.rfind(':');
  if (colon != std::string_view::npos) {
    const std::string_view port_sv = authority.substr(colon + 1);
    std::uint16_t port = 0;
    const auto [ptr, ec] = std::from_chars(
        port_sv.data(), port_sv.data() + port_sv.size(), port);
    if (ec != std::errc() || ptr != port_sv.data() + port_sv.size()) {
      return util::make_unexpected("bad port");
    }
    url.port = port;
    authority = authority.substr(0, colon);
  }
  url.host = util::to_lower(authority);
  return url;
}

Url resolve(const Url& base, std::string_view ref) {
  if (util::starts_with(ref, "https://") || util::starts_with(ref, "http://")) {
    auto parsed = parse_url(ref);
    if (parsed) return *parsed;
    return base;
  }
  Url out = base;
  if (util::starts_with(ref, "//")) {
    auto parsed = parse_url(base.scheme + "://" + std::string(ref.substr(2)));
    if (parsed) return *parsed;
    return base;
  }
  if (util::starts_with(ref, "/")) {
    out.path = std::string(ref);
    return out;
  }
  const std::size_t last_slash = out.path.rfind('/');
  out.path = out.path.substr(0, last_slash + 1) + std::string(ref);
  return out;
}

}  // namespace h2push::http
